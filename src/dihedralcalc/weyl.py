"""The dihedral group I2(n): canonical elements, group law, lengths, duality.

Elements are stored canonically as (length, side) where side names the unique
right descent s_side for 0 < length < n; the identity and (in the finite
case) the longest element carry side None.  Internally every element is an
affine map k -> eps*k + c on vertex indices: the 2n-gon has a vertex at
angle k*pi/n for each k, type 1 at even k, type 2 at odd k, and the base
chamber is the edge {0, 1}.  The generators act by s1: k -> -k and
s2: k -> 2 - k, so composition and the vertex action are O(1) integer
arithmetic.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .errors import InvalidParameterError


class WeylElement(NamedTuple):
    length: int
    side: int | None

    def __repr__(self) -> str:
        if self.length == 0:
            return "W(e)"
        if self.side is None:
            return f"W(w0:{self.length})"
        return f"W({self.length},s{self.side})"


IDENTITY = WeylElement(0, None)


class DihedralGroup:
    """I2(n) for finite n >= 2, or the infinite dihedral group for n=None."""

    def __init__(self, n: int | None):
        if n is not None and (not isinstance(n, int) or n < 2):
            raise InvalidParameterError("n must be an integer >= 2 or None")
        self.n = n
        self.identity = IDENTITY

    # -- canonical form <-> affine map ------------------------------------

    def _to_map(self, w: WeylElement) -> tuple[int, int]:
        ln, side = w
        if ln == 0:
            return (1, 0)
        if self.n is not None and ln == self.n and side is None:
            if ln % 2 == 0:
                return (1, ln)
            return (-1, ln + 1)
        if side not in (1, 2):
            raise InvalidParameterError(f"non-canonical element {w}")
        half = ln // 2
        if ln % 2 == 0:
            return (1, 2 * half) if side == 1 else (1, -2 * half)
        return (-1, -2 * half) if side == 1 else (-1, 2 * half + 2)

    def _from_map(self, eps: int, c: int) -> WeylElement:
        n = self.n
        if n is not None:
            c %= 2 * n
        if eps == 1:
            if c == 0:
                return IDENTITY
            if n is None:
                return WeylElement(c, 1) if c > 0 else WeylElement(-c, 2)
            if c == n:
                return WeylElement(n, None)
            return WeylElement(c, 1) if c < n else WeylElement(2 * n - c, 2)
        if n is None:
            if c <= 0:
                return WeylElement(-c + 1, 1)
            if c >= 2:
                return WeylElement(c - 1, 2)
            raise InvalidParameterError("odd translation part in reflection")
        len1 = 2 * ((-c // 2) % n) + 1
        if len1 == n:
            return WeylElement(n, None)
        return WeylElement(len1, 1) if len1 < 2 * n - len1 \
            else WeylElement(2 * n - len1, 2)

    # -- constructors -------------------------------------------------------

    def element(self, length: int, side: int | None) -> WeylElement:
        if length < 0:
            raise InvalidParameterError("length must be nonnegative")
        if self.n is not None and length > self.n:
            raise InvalidParameterError(f"length {length} exceeds n={self.n}")
        if length == 0:
            if side is not None:
                raise InvalidParameterError("identity has side None")
            return IDENTITY
        if self.n is not None and length == self.n:
            if side is not None:
                raise InvalidParameterError("longest element has side None")
            return WeylElement(self.n, None)
        if side not in (1, 2):
            raise InvalidParameterError("side must be 1 or 2")
        return WeylElement(length, side)

    @property
    def longest(self) -> WeylElement:
        if self.n is None:
            raise InvalidParameterError("infinite group has no longest element")
        return WeylElement(self.n, None)

    # -- group law ---------------------------------------------------------

    def compose(self, u: WeylElement, v: WeylElement) -> WeylElement:
        eu, cu = self._to_map(u)
        ev, cv = self._to_map(v)
        return self._from_map(eu * ev, eu * cv + cu)

    # -- enumeration ---------------------------------------------------------

    def elements(self, max_length: int | None = None) -> Iterator[WeylElement]:
        if max_length is None:
            if self.n is None:
                raise InvalidParameterError("infinite group needs max_length")
            max_length = self.n
        if self.n is not None:
            max_length = min(max_length, self.n)
        yield IDENTITY
        for ln in range(1, max_length + 1):
            if self.n is not None and ln == self.n:
                yield WeylElement(self.n, None)
            else:
                yield WeylElement(ln, 1)
                yield WeylElement(ln, 2)

    # -- one-sided lengths, duality ---------------------------------------------

    def ell_side(self, w: WeylElement, l: int) -> int:
        """One-sided length: min(ell(w), ell(w*s_l))."""
        if l not in (1, 2):
            raise InvalidParameterError("side must be 1 or 2")
        if w.length == 0:
            return 0
        if w.side is None:
            return w.length - 1
        return w.length - 1 if w.side == l else w.length

    def pd(self, w: WeylElement) -> WeylElement:
        """Poincare duality on labels: w -> w0 * w."""
        return self.compose(self.longest, w)

    # -- vertex action ------------------------------------------------------

    def vertex_index(self, w: WeylElement, l: int) -> int:
        """Index of w(zeta_l): the image of base vertex 0 (l=1) or 1 (l=2)."""
        if l not in (1, 2):
            raise InvalidParameterError("vertex type must be 1 or 2")
        eps, c = self._to_map(w)
        k = eps * (l - 1) + c
        if self.n is not None:
            k %= 2 * self.n
        return k

    def star_index(self, k: int) -> int:
        """The map -w0 on vertex indices (used for contragredient weights)."""
        if self.n is None:
            raise InvalidParameterError("infinite group has no star map")
        if self.n % 2 == 0:
            return k % (2 * self.n)
        return (1 - k) % (2 * self.n)
