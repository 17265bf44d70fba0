"""Degreewise convolution oracle for the Rees cohomology windows.

``BandWindow`` and ``TensorWindow`` as docs/math-notes.md §3 and §4 state
them, one degree at a time: the band multiplies a factor dimension by
``a+1`` or ``-a-1``, and the tensor assembly sums products over every
index split ``i + j = q`` and every degree split ``alpha + beta = a`` with
``alpha, beta`` in ``[a, 0]``. Their flags compose by the support argument
on the factor flags. Nothing is memoized. A factor needs only
``max_index`` and ``dim_at`` (and ``flag`` for the flags), so an explicit
table of dimensions works as a factor too. The production windows, which
act on contribution profiles, are checked against these.
"""

from gradealg.simplicial import CohomologyWindow, IndexFlags


class BandWindow:
    """Cohomology window of R(A1; m1) derived from a window of A1.

    Exact at every degree, like its base, which is queried at the same
    internal degree, one index down for the negative band.
    """

    def __init__(self, base: CohomologyWindow):
        self.base = base
        self.max_index = base.max_index + 1

    def indices(self) -> range:
        return range(0, self.max_index + 1)

    def dim_at(self, i: int, a: int) -> int:
        if a >= 0:
            return (a + 1) * self.base.dim_at(i, a)
        if a == -1:
            return 0
        return (-a - 1) * self.base.dim_at(i - 1, a)

    def flag(self, i: int) -> IndexFlags:
        upper = self.base.flag(i)
        lower = self.base.flag(i - 1)
        zero_nonneg = upper.is_zero or self.base.dim_at(i, 0) == 0
        zero_low = lower.is_zero or lower.vanishes_below_minus_one
        finite = zero_low
        return IndexFlags(
            is_zero=zero_nonneg and zero_low,
            finite_length=finite,
            vanishes_below_minus_one=finite,
        )


class TensorWindow:
    """Cohomology window of M (x) N for factors vanishing in positive degrees."""

    def __init__(self, first, second):
        self.first = first
        self.second = second
        self.max_index = first.max_index + second.max_index

    def indices(self) -> range:
        return range(0, self.max_index + 1)

    def dim_at(self, q: int, a: int) -> int:
        if a > 0:
            return 0
        total = 0
        for i in range(0, min(q, self.first.max_index) + 1):
            j = q - i
            if j > self.second.max_index:
                continue
            for alpha in range(a, 1):
                left = self.first.dim_at(i, alpha)
                if left:
                    total += left * self.second.dim_at(j, a - alpha)
        return total

    def flag(self, q: int) -> IndexFlags:
        is_zero = True
        finite = True
        below = True
        for i in range(0, min(q, self.first.max_index) + 1):
            j = q - i
            if j > self.second.max_index:
                continue
            f1 = self.first.flag(i)
            f2 = self.second.flag(j)
            if f1.is_zero or f2.is_zero:
                continue
            is_zero = False
            if not (f1.finite_length and f2.finite_length):
                finite = False
            if not (f1.vanishes_below_minus_one and f2.vanishes_below_minus_one):
                below = False
        return IndexFlags(is_zero, finite_length=finite, vanishes_below_minus_one=below)
