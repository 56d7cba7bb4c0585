"""Projective sequences of affine window fibers, plateau detection, limit
extraction, inverse-rule synthesis and witness searches.

For a linear CA the window maps tau_n : V^{A_n} -> V^{B_n} turn global
questions into finite exact ones.  Given a target configuration y, the
fibers X_n = tau_n^{-1}(y|B_n) form a projective sequence of affine
subspaces under restriction (``ProjectiveAffineSequence`` over the windows
of a ``WindowSystem``), each built from the one below it by solving only
the window rows new at its level: none where the window repeats, as a
finite group's does once A_n = G.  Each ambient space is finite dimensional,
so the image chains f_{nm}(X_m) are non-increasing and must stabilize; past
a plateau the (universal) levels admit surjective one-step bonding maps, and
the extraction walks a canonical point up them, certifying every lift by its
one-step restriction equation.  ``extract_limit_prefix`` returns the
``PreimageResult`` itself: a first empty level comes with its checked fiber
witness, and the top point passes ``window_preimage``.  Plateau detection
at a finite cutoff is heuristic evidence, never proof, so failures at the
cutoff are reported as Unknown while every positive answer is verified
independently.  On a finite group a plateau is read only from the first
level whose window is the whole group, where every level is the same.

Inverse synthesis does not wait for kernel chains to stabilize: it solves
the exact linear system "candidate_rule o automaton = identity" over the
unknown inverse blocks, growing the candidate memory through word balls.
A solved inverse is self-certifying (both compositions are checked by
exact rule arithmetic), and if the automaton is reversible at all, some
finite ball contains its inverse's memory, so the search is complete.

On Z and Z^d a rule with alphabet GF(p)^n is an n x n matrix A over the
Laurent polynomials, and ``laurent`` reads A^-1 off a power series at an
invertible end block.  Two theorems rule searches out: a bijective linear CA
with finite-dimensional alphabet is reversible (the paper's), and on the
amenable groups Z^d a linear CA is surjective iff pre-injective, and
injective ones are surjective (linear Garden of Eden; Ceccherini-Silberstein
& Coornaert, Cellular Automata and Groups, ch. 8).  An invertible end block
makes det A nonzero; the series ends iff det A is a unit.  With both end
blocks singular the series cannot tell, and every search runs.

On a finite group one elimination decides: the left-inverse system over
every element, the one the radius search reaches at saturation.  It runs
only when the search's radius reaches the whole group, so it never builds
a system larger than the search would.  On F_k the abelianization phi
(letter i -> e_i) maps the group ring homomorphically to Z^k's, so A
invertible makes phi(A) invertible (``ca.push_forward``), and a
vertex block proves every window map onto (``vertex_block``).  On F_k both
facts only skip searches; neither answers on its own.

    group   decision               searches run           why the others cannot succeed
    Z, Z^d  series ends            left inverse, read     bijective: no kernel element, every window
                                   off the series         map onto
    Z       series does not end    periodic               a left inverse would make A injective, so
                                                          bijective and det A a unit; det A != 0 makes
                                                          A pre-injective, so surjective: no fiber and
                                                          no finitely supported kernel element
    Z^d     series does not end    constant               the same; a constant kernel element is not
                                                          finitely supported, and only Z has the
                                                          periodic search
    Z, Z^d  both ends singular     all but constant on Z  none is ruled out; on Z period 1 is the
                                                          constant search
    finite  elimination solves     left inverse, the      bijective
                                   solution
    finite  elimination does not   all but left inverse   injective, surjective and bijective agree on
            solve                                         a finite group, so a left inverse would be
                                                          the inverse, which the elimination finds
    F_k     series of phi(A) does  all but left inverse   nu o A = identity gives det phi(nu)
            not end                                       det phi(A) = 1 over a commutative ring, so
                                                          det phi(A) would be a unit
    F_k     vertex block           all but fiber          every window map is onto

Rows marked Z^d are for d >= 2.  The two F_k rows combine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Iterable, Optional, Union

import numpy as np

from . import laurent, linalg
from .ca import (
    Configuration,
    FiniteSupportConfig,
    LinearCA,
    Pattern,
    PeriodicConfig,
    WindowMap,
    cell_view,
    check_on_group,
    compose,
    config_equal,
    constant,
    coordinates,
    equals_identity,
    finite_support,
    pattern_to_vec,
    periodic,
    push_forward,
    vec_to_pattern,
    zero_config,
)
from .groups import FreeGroup, IntegerGroup, LatticeGroup, ball_fits, interior
from .linalg import (
    AffineSubspace,
    constrain_affine,
    image_of_affine,
    kernel_basis,
    matmul,
    solve_affine_multi,
)


class StabilizationCutoffError(RuntimeError):
    """No plateau, or no preimage, within the configured cutoff."""


# -- window systems and projective sequences --------------------------------


class WindowSystem:
    """The windows of one automaton: the cells A_n and B_n of each level,
    cached.  This class is the one owner of the windows: it decides r0 and
    the order of the cells, and every window map, preimage level, fiber
    witness and window-preimage check takes its cells from ``cells(n)``.
    A_n is ball(r0 + n), r0 by default the largest word norm in the memory,
    sorted stably by the layer max(|g| - r0, 0): A_{n-1} comes first, so
    x|A_n is the prefix x[:ambient(n)] of a window vector x over A_m, n <= m.

    No matrix is cached.  ``window(n)`` builds the whole window map W_n
    afresh on each call; the preimage levels never ask for it, since each
    reads only the rows of W_n at ``new_targets(n)``, over the cells those
    rows ``reach``."""

    def __init__(self, automaton: LinearCA, r0: Optional[int] = None):
        self.ca = automaton
        norm = automaton.group.word_norm
        self.r0 = max(map(norm, automaton.memory)) if r0 is None else r0
        self._cells: dict[int, tuple[tuple, tuple]] = {}

    def cells(self, n: int) -> tuple[tuple, tuple]:
        """(A_n, B_n): the source cells, A_{n-1} first, and their interior,
        the cells where the rule reads only A_n, in canonical order."""
        if n not in self._cells:
            if n < 0:
                raise ValueError("window index must be nonnegative")
            group, r0 = self.ca.group, self.r0
            source = tuple(
                sorted(group.ball(r0 + n), key=lambda g: max(group.word_norm(g) - r0, 0))
            )
            self._cells[n] = (source, interior(group, source, self.ca.memory))
        return self._cells[n]

    def window(self, n: int) -> WindowMap:
        """The window map V^{A_n} -> V^{B_n}, built on each call from the
        cached cells."""
        return self.ca.window_map(*self.cells(n))

    def ambient(self, n: int) -> int:
        return self.ca.dim_v * len(self.cells(n)[0])

    def covers_group(self, n: int) -> bool:
        """Whether A_n is the whole group: on a finite group from some level
        on, on an infinite group never."""
        group = self.ca.group
        return group.is_finite() and len(self.cells(n)[0]) == group.order

    def new_targets(self, n: int) -> tuple:
        """The cells of B_n minus B_{n-1}, in canonical order; B_{-1} is empty."""
        below = set(self.cells(n - 1)[1]) if n else set()
        return tuple(g for g in self.cells(n)[1] if g not in below)

    def reach(self, n: int, targets: Iterable) -> tuple:
        """The cells of A_n that the rows of W_n at ``targets`` read, {g m},
        in the order of A_n.  Those rows are ``ca.block_matrix(targets,
        reach)`` at the coordinates of the reach and zero elsewhere."""
        mul = self.ca.group.multiply
        read = {mul(g, m) for g in targets for m in self.ca.memory}
        return tuple(c for c in self.cells(n)[0] if c in read)

    def target_vec(self, config: Configuration, n: int) -> np.ndarray:
        """The target configuration restricted to B_n, vectorized."""
        return pattern_to_vec(config, self.cells(n)[1], self.ca.dim_v, self.ca.p)


class ProjectiveAffineSequence:
    """The window fibers X_n = tau_n^{-1}(y|B_n) of a target y over the
    windows A_n, B_n of ``windows``: affine subspaces with prefix bonds
    f_{nm}(x) = x[:k], k = ambient(n).  Levels are built bottom-up, each
    from the one below: the single point of GF(p)^0 below level 0."""

    def __init__(self, windows: WindowSystem, target: Configuration):
        self.windows = windows
        self.target = target
        self.p = windows.ca.p
        self._levels: dict[int, AffineSubspace] = {}

    def ambient(self, n: int) -> int:
        return self.windows.ambient(n)

    def level(self, n: int) -> AffineSubspace:
        """X_n; levels are computed bottom-up, so levels 0..len - 1 are cached."""
        if n < 0:
            raise ValueError(f"levels start at 0, got {n}")
        for k in range(len(self._levels), n + 1):
            below = self._levels[k - 1] if k else AffineSubspace.full(0, self.p)
            self._levels[k] = self._level(k, below)
        return self._levels[n]

    def _level(self, n: int, below: AffineSubspace) -> AffineSubspace:
        """X_n from X_{n-1}: B_{n-1} M lies in A_{n-1}, so the rows of W_n at
        B_{n-1} are those of W_{n-1}, and X_n = {x : x|A_{n-1} in X_{n-1},
        the rows at B_n minus B_{n-1} hold}, solved in the parameters of
        X_{n-1} and new cells.

        Those parameters span X_{n-1}'s RREF basis on the prefix A_{n-1} and
        a unit row at each new coordinate, so ``solve_in_lift`` reads X_n's
        directions off one copy of X_{n-1}'s basis rows and one product on
        the few rows that need it, with one elimination per level whose
        window grows, and never builds the unit rows.  A repeated window
        A_n = A_{n-1} has B_n = B_{n-1}, no new row and no new cell: X_n is
        X_{n-1} itself.

        No level builds W_n.  The new rows read only the cells they reach, so
        the level takes ``ca.block_matrix(new targets, reach)``.  Its columns
        at the reach's cells in A_{n-1} meet X_{n-1}'s basis and point in one
        product; its columns at the new cells are already the coefficients of
        the unit rows.  This is the lift's exact product with W_n's zero
        columns and the unit rows left out."""
        ws, p = self.windows, self.p
        if n and ws.cells(n)[0] == ws.cells(n - 1)[0]:
            return below
        ambient = ws.ambient(n)
        if below.is_empty:
            return AffineSubspace.empty(ambient, p)
        span, k = below.directions, below.ambient
        fresh = ws.new_targets(n)
        reach = ws.reach(n, fresh)
        cols = coordinates(reach, ws.cells(n)[0], ws.ca.dim_v)
        w = ws.ca.block_matrix(fresh, reach)
        # The reach lists its cells in A_{n-1}, the prefix, first.
        old = int(np.searchsorted(cols, k))
        known = cols[:old]
        # X_{n-1}'s basis rows and its point, pulled back; the last column
        # is the point's image.
        pulled = matmul(w[:, :old], np.vstack([span.basis[:, known], below.point[known]]).T, p)
        coeff = np.zeros((len(w), span.dim + ambient - k), dtype=np.int64)
        coeff[:, : span.dim] = pulled[:, :-1]
        coeff[:, span.dim + cols[old:] - k] = w[:, old:]
        rhs = pattern_to_vec(self.target, fresh, ws.ca.dim_v, p) - pulled[:, -1]
        return linalg.solve_in_lift(below, ambient - k, coeff, rhs)


def kernel_sequence(automaton: LinearCA) -> ProjectiveAffineSequence:
    """Window kernels 0 + ker W_n, the preimage sequence of zero over plain
    radius-n balls, so level 0 is the smallest window (the diagnostic chain)."""
    return ProjectiveAffineSequence(WindowSystem(automaton, r0=0), zero_config())


# -- universal chains and extraction ----------------------------------------


@dataclass
class UniversalChain:
    """Images f_{n,m}(X_m) for m = n, n+1, ... until a plateau or cutoff.

    ``plateau`` is the first absolute index of the run of equal images that
    ended the chain; None means the cutoff was reached first."""

    start: int
    images: list
    plateau: Optional[int]

    @property
    def stabilized(self) -> AffineSubspace:
        if self.plateau is None:
            raise StabilizationCutoffError(
                f"no plateau at level {self.start} within the computed images"
            )
        return self.images[self.plateau - self.start]


def universal_spaces(
    seq: ProjectiveAffineSequence, n: int, cutoff: int, plateau_k: int = 2
) -> UniversalChain:
    """Compute the image chain at level n up to the cutoff, stopping at the
    first run of ``plateau_k`` equal images.

    On a finite group a run counts only if it starts where the window is
    the whole group.  From there on every level is the same, so the plateau
    is exact; a run of equal images below it can still shrink later."""
    if cutoff < n:
        raise ValueError("cutoff must be >= n")
    if plateau_k < 1:
        raise ValueError("plateau_k must be >= 1")
    ws = seq.windows
    finite = ws.ca.group.is_finite()
    images: list[AffineSubspace] = []
    plateau = None
    for m in range(n, cutoff + 1):
        images.append(image_of_affine(seq.ambient(n), seq.level(m)))
        start = m - plateau_k + 1
        if start < n or (finite and not ws.covers_group(start)):
            continue
        run = images[-plateau_k:]
        if all(r == run[0] for r in run[1:]):
            plateau = start
            break
    return UniversalChain(n, images, plateau)


def lift_element(
    seq: ProjectiveAffineSequence, n: int, x_n: np.ndarray, chains: dict
) -> np.ndarray:
    """Lift a universal element one level: returns x_{n+1} at level n+1 with
    x_{n+1}[:ambient(n)] = x_n, the canonical point of the witness level,
    past the plateaus of ``chains[n]`` and ``chains[n + 1]``, constrained to
    x_n on its prefix.  Raises StabilizationCutoffError when either chain has
    no plateau or the witness level holds no preimage."""
    plateaus = [chains[lev].plateau for lev in (n, n + 1)]
    if None in plateaus:
        raise StabilizationCutoffError(f"no plateau at level {n} or {n + 1}")
    witness_level = max(*plateaus, n + 1)
    fiber = constrain_affine(seq.level(witness_level), seq.ambient(n), x_n)
    if fiber.is_empty:
        raise StabilizationCutoffError(
            f"element at level {n} has no preimage at witness level {witness_level}"
        )
    x_next = fiber.point[: seq.ambient(n + 1)].copy()
    if not np.array_equal(x_next[: seq.ambient(n)], x_n):
        raise AssertionError("lift violated its one-step restriction equation")
    return x_next


# -- inverse synthesis -------------------------------------------------------


@dataclass
class ReversibilityCertificate:
    """A synthesized inverse rule; its two compositions with the automaton
    are the exact transcript that certifies it."""

    automaton: LinearCA
    inverse: LinearCA

    @property
    def radius(self) -> int:
        """The smallest word ball holding the inverse's memory.  The inverse
        of a bijective CA is unique, so this is where the search finds it."""
        return max(self.automaton.group.word_norm(m) for m in self.inverse.memory)

    @cached_property
    def left_composition(self) -> LinearCA:
        return compose(self.inverse, self.automaton)

    @cached_property
    def right_composition(self) -> LinearCA:
        return compose(self.automaton, self.inverse)

    def verify(self) -> bool:
        return equals_identity(self.left_composition) and equals_identity(
            self.right_composition
        )


@dataclass
class KernelWitness:
    """A nonzero configuration mapped to zero: certifies non-injectivity."""

    automaton: LinearCA
    config: Configuration

    @cached_property
    def image(self) -> Configuration:
        return self.automaton.apply_config(self.config)

    def verify(self) -> bool:
        ca, zero = self.automaton, zero_config()
        nonzero = not config_equal(ca.group, ca.dim_v, self.config, zero)
        return nonzero and config_equal(ca.group, ca.dim_v, self.image, zero)


@dataclass
class EmptyFiberWitness:
    """A window pattern with empty fiber: certifies a global target (any
    configuration extending the pattern) lies outside the image."""

    automaton: LinearCA
    level: int
    window_cells: tuple
    pattern: Pattern
    # The window map at ``level``, when the caller already holds it.
    window: Optional[WindowMap] = field(default=None, repr=False, compare=False)

    @cached_property
    def _window(self) -> WindowMap:
        return self.window or WindowSystem(self.automaton).window(self.level)

    def _vector(self) -> np.ndarray:
        ca = self.automaton
        return pattern_to_vec(self.pattern, self._window.target, ca.dim_v, ca.p)

    @cached_property
    def ranks(self) -> tuple[int, int]:
        """Ranks of the window matrix W and of [W | v], v the pattern, from
        one RREF of [W | v]: the pivots left of v are those of W.  The fiber
        is empty exactly when the second rank is larger."""
        m = self._window.matrix
        augmented = np.hstack([m, self._vector().reshape(-1, 1)])
        _, pivots, r_aug = linalg.rref(augmented, self.automaton.p)
        return sum(c < m.shape[1] for c in pivots), r_aug

    def failure(self) -> Optional[str]:
        """Why the witness fails its check, or None when it holds.  B_level
        contains ball(level): a window that lists fewer distinct cells is
        rejected before any window map is built.  A window map never repeats
        a cell, so a window that does is rejected too."""
        cells = self.window_cells
        distinct = set(cells)
        if len(distinct) != len(cells):
            return "the window lists a cell twice"
        if set(self.pattern.cells) != distinct:
            return "the pattern is not on the window's cells"
        if not ball_fits(self.automaton.group, self.level, len(distinct)):
            return "the window has fewer cells than ball(level)"
        if self._window.target != cells:
            return "the window is not B_level"
        r_plain, r_aug = self.ranks
        return None if r_aug == r_plain + 1 else "window fiber is not empty"

    def verify(self) -> bool:
        return self.failure() is None


@dataclass
class NotInvertible:
    witness: Union[KernelWitness, EmptyFiberWitness]


@dataclass
class SolverUnknown:
    reason: str


InvertResult = Union[ReversibilityCertificate, NotInvertible, SolverUnknown]


def _solve_left_inverse(ca: LinearCA, candidates: tuple) -> Optional[list]:
    """Blocks c_w of a rule nu with memory ``candidates`` and nu o ca =
    identity, or None.  The block of nu o ca at u is the sum of c_w b_m over
    w m = u.  Transposed, sum b_m^T c_w^T = [u = e] I over w m = u: its
    coefficient matrix is the transpose of the rule's own block matrix from
    the cells u to the candidates, which has b_m at (w, u).  The dimV
    right-hand-side columns share it, so one elimination answers them all."""
    d = ca.dim_v
    g = ca.group
    if d == 0:
        return [np.zeros((0, 0), dtype=np.int64) for _ in candidates]
    us = g.sort_elements({g.multiply(w, m) for w in candidates for m in ca.memory})
    coeff = ca.block_matrix(candidates, us).T
    rhs = np.zeros((d * len(us), d), dtype=np.int64)
    cell_view(rhs, us, d)[us.index(g.identity())] = np.eye(d, dtype=np.int64)
    _, points = solve_affine_multi(coeff, rhs, ca.p)
    if any(pt is None for pt in points):
        return None
    return [c.T for c in cell_view(np.stack(points, axis=1), candidates, d)]


def _support_kernel_witness(ca: LinearCA, radius: int) -> Optional[FiniteSupportConfig]:
    """Nonzero kernel configuration supported in the radius ball, if any."""
    g = ca.group
    d = ca.dim_v
    cells = g.ball(radius)
    if d == 0 or not cells:
        return None
    rows = g.sort_elements(
        {g.multiply(w, g.inverse(m)) for w in cells for m in ca.memory}
    )
    kern = kernel_basis(ca.block_matrix(rows, cells), ca.p)
    if kern.dim == 0:
        return None
    return finite_support(ca.p, d, dict(zip(cells, cell_view(kern.basis[0], cells, d))))


def _constant_kernel_witness(ca: LinearCA):
    """Nonzero constant kernel configuration (valid on every group);
    ``sum(ca.blocks) % p`` is already the push-forward to the trivial group."""
    if ca.dim_v == 0:
        return None
    kern = kernel_basis(sum(ca.blocks) % ca.p, ca.p)
    if kern.dim == 0:
        return None
    return constant(ca.p, ca.dim_v, kern.basis[0])


def _periodic_system(ca: LinearCA, q: int) -> np.ndarray:
    """The automaton on q-periodic configurations of the integers, as a
    matrix on one period: its block matrix from the cells i + m reach, with
    the columns of cells equal mod q added together and reduced: the block
    matrix of ``push_forward`` along Z -> Z/q without ``cyclic_group(q)``,
    whose O(q^3) table check took 1.42 s of 1.57 s at dimV 1 and q = 600,
    against 0.20 s folded (one Intel Xeon core)."""
    d, first = ca.dim_v, min(ca.memory) // q * q
    k = (q - 1 + max(ca.memory)) // q - first // q + 1
    wide = ca.block_matrix(range(q), range(first, first + k * q))
    folded = wide.reshape(d * q, k, q * d).sum(axis=1)
    folded[folded >= ca.p] %= ca.p  # only sums of several blocks need it
    return folded


def _periodic_kernel_witness(ca: LinearCA, q: int) -> Optional[PeriodicConfig]:
    """Nonzero q-periodic kernel configuration on the integers, if any."""
    if not isinstance(ca.group, IntegerGroup) or ca.dim_v == 0:
        return None
    kern = kernel_basis(_periodic_system(ca, q), ca.p)
    if kern.dim == 0:
        return None
    return periodic(ca.p, ca.dim_v, cell_view(kern.basis[0], range(q), ca.dim_v))


def vertex_block(ca: LinearCA):
    """A memory element m0 whose block makes every window map onto, or None.

    m0 is the unique minimiser of a weight +-e_i . phi(m) over the cells the
    rule reads (``support_memory``), phi the map onto Z^k of
    ``laurent.abelian_point``, and b_m0 is invertible.  Then for any window,
    the targets g taken by decreasing weight of phi(g) can be met in turn by
    x(g m0) = b_m0^-1 (y(g) - sum_(m != m0) b_m x(g m)): every x(g m) it
    reads is a cell no target assigns, or one assigned before.  A finite
    group has no weight, so it has no vertex block."""
    if ca.group.is_finite():
        return None
    live = ca.support_memory
    points = [laurent.abelian_point(ca.group, m) for m in live]
    for i in range(len(points[0])):
        for sign in (1, -1):
            weights = [sign * pt[i] for pt in points]
            low = min(weights)
            if weights.count(low) == 1:
                m0 = live[weights.index(low)]
                if linalg.rank(ca.block(m0), ca.p) == ca.dim_v:
                    return m0
    return None


def _decide(ca: LinearCA, radius: int) -> laurent.Series:
    """Whether the rule is invertible, where one computation settles it: on
    a finite group the left-inverse system over every element, the one the
    radius search reaches at saturation, once ball(radius) is the whole
    group (below that the search never builds a system that large); on Z
    and Z^d the inverse series; elsewhere ``laurent.UNDECIDED``."""
    g = ca.group
    if not g.is_finite():
        return laurent.inverse_series(ca)
    if len(g.ball(radius)) < g.order:
        return laurent.UNDECIDED
    blocks = _solve_left_inverse(ca, g.elements())
    if blocks is None:
        return laurent.Series(False)
    return laurent.Series(True, LinearCA(g, ca.p, ca.dim_v, g.elements(), blocks))


def _possible_families(ca: LinearCA, series: laurent.Series) -> frozenset:
    """The searches that can still succeed, by the module docstring's table.
    ``series`` is the rule's ``_decide`` verdict."""
    every = frozenset({"left-inverse", "support", "constant", "periodic", "fiber"})
    if series.ends:
        return frozenset({"left-inverse"})
    group = ca.group
    if isinstance(group, IntegerGroup):
        return frozenset({"periodic"}) if series.ends is False else every - {"constant"}
    if isinstance(group, LatticeGroup) and series.ends is False:
        return frozenset({"constant"})
    families = every - {"left-inverse"} if series.ends is False else every
    if isinstance(group, FreeGroup):
        image = push_forward(ca, LatticeGroup(group.rank), partial(laurent.abelian_point, group))
        if laurent.inverse_series(image).ends is False:
            families -= {"left-inverse"}
        if vertex_block(ca) is not None:
            families -= {"fiber"}
    return families


def _kernel_search(
    ca: LinearCA, families: frozenset, radii: Iterable[int], periods: Iterable[int]
) -> Optional[KernelWitness]:
    """The first checked kernel witness of the allowed families, searched as
    finitely supported ones on the given radii, the constant one, then
    q-periodic ones on the integers; None when none is found."""

    def candidates():
        if "support" in families:
            yield from (_support_kernel_witness(ca, radius) for radius in radii)
        if "constant" in families:
            yield _constant_kernel_witness(ca)
        if "periodic" in families:
            yield from (_periodic_kernel_witness(ca, q) for q in periods)

    found = (KernelWitness(ca, c) for c in candidates() if c is not None)
    return next((w for w in found if w.verify()), None)


def kernel_witness(
    ca: LinearCA, support_bound: int = 4, period_bound: int = 4
) -> Optional[Configuration]:
    """Search for a nonzero configuration in the kernel: finitely supported
    ones on growing balls, then the constant one, then periodic ones on the
    integers, as far as the rule's decision allows (the module docstring's
    table).  Any returned witness is re-verified exactly; None is inconclusive."""
    if min(support_bound, period_bound) < 0:
        raise ValueError(f"bounds must be >= 0, got {support_bound} and {period_bound}")
    radii, periods = range(support_bound + 1), range(1, period_bound + 1)
    families = _possible_families(ca, _decide(ca, support_bound))
    witness = _kernel_search(ca, families, radii, periods)
    return witness.config if witness is not None else None


def _checked_fiber_witness(
    ca: LinearCA, n: int, w: WindowMap, vec: np.ndarray
) -> Optional[EmptyFiberWitness]:
    """The witness that ``vec`` on the window's target cells has an empty
    fiber under ``w`` (the window map at level n), if it passes its check."""
    pattern = vec_to_pattern(vec, w.target, ca.dim_v)
    witness = EmptyFiberWitness(ca, n, w.target, pattern, w)
    return witness if witness.verify() else None


def _window_fiber_counterexample(
    ca: LinearCA, n: int, ws: WindowSystem
) -> Optional[EmptyFiberWitness]:
    """A pattern on B_n outside the image of the window map, if the window
    map is not surjective."""
    w = ws.window(n)
    out_dim = w.matrix.shape[0]
    if out_dim == 0:
        return None
    _, pivots, rk = linalg.rref(w.matrix.T, ca.p)
    if rk == out_dim:
        return None
    pivot_set = set(pivots)
    missing = next(j for j in range(out_dim) if j not in pivot_set)
    vec = np.zeros(out_dim, dtype=np.int64)
    vec[missing] = 1
    return _checked_fiber_witness(ca, n, w, vec)


def surjectivity_counterexample(
    ca: LinearCA, max_radius: int = 6
) -> Optional[EmptyFiberWitness]:
    """Scan window maps for a rank deficiency; any pattern outside a window
    image certifies non-surjectivity of the global map.  Nothing is scanned
    when the map is proved surjective: on Z and Z^d by an invertible end
    block, which makes det A nonzero; on a finite group by the solved
    left-inverse system; on F_k by a vertex block.  Otherwise the fiber
    search of ``_radius_search`` runs alone, once per distinct window up to
    ``max_radius``.  None is inconclusive."""
    if max_radius < 0:
        raise ValueError(f"max_radius must be >= 0, got {max_radius}")
    if "fiber" not in _possible_families(ca, _decide(ca, max_radius)):
        return None
    result = _radius_search(ca, frozenset({"fiber"}), max_radius)
    return result.witness if isinstance(result, NotInvertible) else None


def invert_ca(ca: LinearCA, max_radius: int = 8) -> InvertResult:
    """Decide reversibility by exact search.

    For each radius the solver poses the left-inverse system over blocks
    with memory in the radius ball; a solution is accepted only if both
    compositions equal the identity rule.  Between attempts it looks for
    kernel witnesses and window-fiber counterexamples, either of which
    certifies non-invertibility.  If the automaton is reversible, some
    finite radius succeeds; Unknown is only returned at the cutoff.

    A decision comes first where one exists (the module docstring says why
    each case holds): the inverse power series on Z and Z^d, and on a finite
    group the left-inverse system over every element, once ball(max_radius)
    is the whole group.  When it finds the inverse, the inverse is returned
    once both compositions check and only if its radius is at most
    ``max_radius``; past it the answer is the search's Unknown, so
    ``max_radius`` bounds the returned inverse's radius either way.
    Otherwise only the searches that can still succeed run:
    the periodic one on Z and the constant one on Z^d when the series does
    not end; all but the left-inverse one on a singular finite rule; on F_k,
    all but the left-inverse one when the series of the rule's image on Z^k
    does not end, and all but the fiber one when a vertex block exists.
    When neither end block is invertible on Z every search runs but the
    constant one, which period 1 covers.  Order and radii are kept, so the
    first success is the one the full search finds."""
    if max_radius < 0:
        raise ValueError(f"max_radius must be >= 0, got {max_radius}")
    series = _decide(ca, max_radius)
    if series.inverse is not None:
        cert = ReversibilityCertificate(ca, series.inverse)
        if cert.verify():
            return cert if cert.radius <= max_radius else _no_verdict(max_radius)
        series = laurent.UNDECIDED  # a wrong inverse proves nothing: search
    return _radius_search(ca, _possible_families(ca, series), max_radius)


def _radius_search(ca: LinearCA, families: frozenset, max_radius: int) -> InvertResult:
    """The searches of ``families``, radius by radius up to ``max_radius``
    or until ball(n) stops growing: the left-inverse system over ball(n),
    then kernel witnesses, then a window fiber, skipped when A_n = A_{n-1}
    since that check gives the same answer again."""
    ws = WindowSystem(ca)
    prev_ball = None
    left_inverse: Optional[LinearCA] = None
    for n in range(max_radius + 1):
        cand = ca.group.ball(n)
        if cand == prev_ball:
            break  # finite group saturated: the search space is exhausted
        prev_ball = cand
        if left_inverse is None and "left-inverse" in families:
            blocks = _solve_left_inverse(ca, cand)
            if blocks is not None:
                nu = LinearCA(ca.group, ca.p, ca.dim_v, cand, blocks)
                cert = ReversibilityCertificate(ca, nu)
                if cert.verify():
                    return cert
                # A left inverse exists, so the map is injective but not
                # surjective; only a fiber witness can certify that.
                left_inverse = nu
        if left_inverse is None:
            # The constant witness does not depend on n: try it once.
            allowed = families if n == 0 else families - {"constant"}
            kernel = _kernel_search(ca, allowed, (n,), (n + 1,))
            if kernel is not None:
                return NotInvertible(kernel)
        if "fiber" in families and (n == 0 or ws.cells(n)[0] != ws.cells(n - 1)[0]):
            fiber = _window_fiber_counterexample(ca, n, ws)
            if fiber is not None:
                return NotInvertible(fiber)
    if left_inverse is not None:
        return SolverUnknown(
            "a left inverse exists but no surjectivity counterexample was found "
            f"within radius {max_radius}"
        )
    return _no_verdict(max_radius)


def _no_verdict(max_radius: int) -> SolverUnknown:
    return SolverUnknown(f"no verdict within radius {max_radius}")


# -- preimage extraction ------------------------------------------------------


@dataclass
class PreimageResult:
    """Outcome of preimage extraction on a window.

    'ok' carries a pattern on A_N whose image matches the target on B_N
    exactly, as ``window_preimage`` checks, and the compatible chain of
    level points it was lifted through; 'not-in-image' carries a verified
    empty-fiber witness at the first empty level; 'unknown' means the
    stabilization cutoff was hit, and ``detail`` says where.  ``chains``
    holds the universal chains computed on the way, and ``windows`` the
    window system they were computed on, which the certificate builder
    reuses."""

    status: str
    pattern: Optional[Pattern] = None
    window_cells: tuple = ()
    matched_cells: tuple = ()
    witness: Optional[EmptyFiberWitness] = None
    level_points: list = field(default_factory=list)
    chains: dict = field(default_factory=dict)
    detail: str = ""
    windows: Optional[WindowSystem] = field(default=None, repr=False, compare=False)


def window_preimage(
    ws: WindowSystem, target: Configuration, n: int, pattern: Pattern
) -> tuple[Optional[str], Optional[Pattern]]:
    """The one check of a window preimage: ``pattern`` lists exactly the
    cells of A_n, and its image equals the target on B_n.  Returns (None,
    the image, on the cells of B_n in their order) when it holds, and (why
    not, None) otherwise.

    A_n is ball(r0 + n), so a pattern with fewer cells is rejected before
    the ball is built.  The image comes from the rule's plain int64 loop on
    purpose: it shares no code with the window matrix or matmul's float
    path, and it is linear in the listed cells."""
    ca, cells = ws.ca, pattern.cells
    if not ball_fits(ca.group, ws.r0 + n, len(cells)):
        return "pattern domain does not match the window", None
    source, matched = ws.cells(n)
    if set(cells) != set(source):
        return "pattern domain does not match the window", None
    image = Pattern(ca._evaluate(matched, cells.get))
    got = pattern_to_vec(image, matched, ca.dim_v, ca.p)
    if not np.array_equal(got, ws.target_vec(target, n)):
        return "pattern image does not match the target", None
    return None, image


def extract_limit_prefix(
    seq: ProjectiveAffineSequence, n_max: int, cutoff: int, plateau_k: int = 2
) -> PreimageResult:
    """Extract a compatible chain x_0 <- x_1 <- ... <- x_{n_max} through the
    stabilized levels; successive restrictions agree by construction and are
    re-checked on every lift, and x_{n_max} passes ``window_preimage``.

    The chain at level n starts with the image of X_n, and each lower level
    started a chain of its own, so the first empty image met is the first
    empty level: it is answered 'not-in-image' with that level's checked
    fiber witness."""
    if not 0 <= n_max <= cutoff:
        raise ValueError(f"need 0 <= level <= cutoff, got level {n_max}, cutoff {cutoff}")
    ws, target = seq.windows, seq.target
    chains: dict[int, UniversalChain] = {}
    for lev in range(n_max + 1):
        chains[lev] = universal_spaces(seq, lev, cutoff, plateau_k)
        empty = next((i for i, x in enumerate(chains[lev].images) if x.is_empty), None)
        if empty is not None:
            m = lev + empty
            witness = _checked_fiber_witness(ws.ca, m, ws.window(m), ws.target_vec(target, m))
            if witness is None:
                raise AssertionError("empty level failed its independent verification")
            return PreimageResult(
                "not-in-image", witness=witness, chains=chains, detail=f"level {m} is empty"
            )
        if chains[lev].plateau is None:
            return PreimageResult(
                "unknown", chains=chains, detail=f"no plateau at level {lev} by cutoff {cutoff}"
            )
    points = [np.array(chains[0].stabilized.point, dtype=np.int64)]
    for n in range(n_max):
        try:
            points.append(lift_element(seq, n, points[-1], chains))
        except StabilizationCutoffError as exc:
            return PreimageResult("unknown", level_points=points, chains=chains, detail=str(exc))
    source, matched = ws.cells(n_max)
    pattern = vec_to_pattern(points[-1], source, ws.ca.dim_v)
    failure, _ = window_preimage(ws, target, n_max, pattern)
    if failure is not None:
        raise AssertionError(f"extracted prefix fails its check: {failure}")
    return PreimageResult(
        "ok",
        pattern=pattern,
        window_cells=source,
        matched_cells=matched,
        level_points=points,
        chains=chains,
        windows=ws,
    )


def preimage_extract(
    ca: LinearCA,
    target: Configuration,
    window_index: int = 4,
    cutoff: int = 12,
    plateau_k: int = 2,
) -> PreimageResult:
    """Extract a window preimage of the target configuration through the
    projective sequence of window fibers."""
    check_on_group(ca.group, target)
    seq = ProjectiveAffineSequence(WindowSystem(ca), target)
    return extract_limit_prefix(seq, window_index, cutoff, plateau_k)
