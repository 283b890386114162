"""Seeded input generator shared by every workload.

All inputs the package sees come from :func:`draws`, a deterministic stream
of ``(nu, lam)`` pairs keyed by ``(seed, stream)``.  Draws come in shuffled
blocks of twenty with fixed quotas, so the input mix of a run does not
depend on luck:

* 10 sub-two draws (``0 < nu < 2``), the paper's subject.  Three use the
  integer ``nu = 1`` (degrees of freedom as statisticians use them), so
  ``critical_lambda`` keys repeat; seven use a continuous ``nu``.  Seven of
  the ten have ``lam`` uniform on [0.5, 8], which straddles the critical
  noncentrality (``lambda_nu`` lies in (2, 4)); three have ``lam``
  log-uniform on [8, 1e4].
* 9 draws with ``2 <= nu <= 100`` and ``lam`` log-uniform on [1e-2, 1e4]:
  three integer ``nu`` in 3..100, six continuous.
* 1 edge case, alternating by block: ``lam = 0`` exactly, or ``nu = 2``
  exactly with ``lam`` on either side of 2.

Continuous coordinates are Latin-hypercube stratified within a block.
Large-order draws (``nu`` above ~21, where the package's large-order Bessel
evaluation is wrong today) are kept, not filtered: they are part of the
documented envelope.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

SUB_TWO_INTEGER = 3
SUB_TWO_CONTINUOUS = 7
SUB_TWO_NEAR_CRITICAL = 7  # of the ten sub-two draws, lam uniform on [0.5, 8]
GE_TWO_INTEGER = 3
GE_TWO_CONTINUOUS = 6
LAM_MAX = 1e4
NU_MAX = 100.0


@dataclass(frozen=True)
class Draw:
    nu: float
    lam: float
    integer_nu: bool


def rng_for(seed: int, stream: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}/{stream}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "little"))


def _strata(rng: random.Random, n: int) -> list[float]:
    """n points in [0, 1), one per equal-width stratum, in random order."""
    pts = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(pts)
    return pts


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _block(rng: random.Random, index: int, integer_nu: bool) -> list[Draw]:
    out: list[Draw] = []
    n_int = SUB_TWO_INTEGER if integer_nu else 0
    n_cont = SUB_TWO_INTEGER + SUB_TWO_CONTINUOUS - n_int
    sub_nus = [1.0] * n_int + [0.02 + 1.96 * u for u in _strata(rng, n_cont)]
    near = [0.5 + 7.5 * u for u in _strata(rng, SUB_TWO_NEAR_CRITICAL)]
    far = [_log_uniform(u, 8.0, LAM_MAX) for u in _strata(rng, len(sub_nus) - len(near))]
    sub_lams = near + far
    rng.shuffle(sub_lams)
    for i, (nu, lam) in enumerate(zip(sub_nus, sub_lams)):
        out.append(Draw(nu, lam, i < n_int))

    n_int = GE_TWO_INTEGER if integer_nu else 0
    n_cont = GE_TWO_INTEGER + GE_TWO_CONTINUOUS - n_int
    ge_nus = [float(rng.randint(3, int(NU_MAX))) for _ in range(n_int)]
    ge_nus += [2.0 + (NU_MAX - 2.0) * u for u in _strata(rng, n_cont)]
    ge_lams = [_log_uniform(u, 1e-2, LAM_MAX) for u in _strata(rng, len(ge_nus))]
    for i, (nu, lam) in enumerate(zip(ge_nus, ge_lams)):
        out.append(Draw(nu, lam, i < n_int))

    if index % 2 == 0:
        sub = index % 4 == 0
        nu = 0.02 + 1.96 * rng.random() if sub else 2.0 + (NU_MAX - 2.0) * rng.random()
        out.append(Draw(nu, 0.0, False))
    else:
        out.append(Draw(2.0, 4.0 * rng.random(), True))
    rng.shuffle(out)
    return out


def draws(seed: int, stream: str, integer_nu: bool = True):
    """Endless deterministic stream of :class:`Draw` for one (seed, stream).

    ``integer_nu=False`` replaces the integer-``nu`` quota by continuous
    draws.  Warm-up uses it so that it never pre-solves the ``nu = 1``
    critical noncentrality that measured inputs share.
    """
    rng = rng_for(seed, stream)
    index = 0
    while True:
        yield from _block(rng, index, integer_nu)
        index += 1


def x_grid(nu: float, lam: float, points: int = 500) -> tuple[float, float, str]:
    """(x_min, x_max, spacing) of a grid covering the bulk of the density.

    Mean +- 6 standard deviations, linear where that stays well inside
    (0, inf); otherwise log spacing over six decades below the upper end,
    so the pole at zero (nu < 2) and the antimode are covered.
    """
    mean = nu + lam
    sd = math.sqrt(2.0 * (nu + 2.0 * lam))
    hi = mean + 6.0 * sd
    lo = mean - 6.0 * sd
    if lo > 0.02 * hi:
        return lo, hi, "linear"
    return hi * 1e-6, hi, "log"


class Mix:
    """Running counts of the input mix, printed with every run.

    ``critical_lambda_repeat_share`` is the share of sub-two draws
    (``0 < nu < 2``, the ones that need ``lambda_nu``) whose ``nu`` already
    occurred earlier in the run.
    """

    def __init__(self):
        self.n = self.sub = self.repeats = self.integer = self.lam0 = self.nu2 = self.large = 0
        self._seen: set[float] = set()

    def add(self, d: Draw) -> None:
        self.n += 1
        self.integer += d.integer_nu
        self.lam0 += d.lam == 0.0
        self.nu2 += d.nu == 2.0
        self.large += d.nu > 21.0
        if 0.0 < d.nu < 2.0:
            self.sub += 1
            self.repeats += d.nu in self._seen
            self._seen.add(d.nu)

    def summary(self) -> dict:
        n = max(1, self.n)
        return {
            "draws": self.n,
            "sub_two_share": self.sub / n,
            "integer_nu_share": self.integer / n,
            "lam_zero_count": self.lam0,
            "nu_two_count": self.nu2,
            "large_order_share": self.large / n,
            "critical_lambda_repeat_share": self.repeats / max(1, self.sub),
        }
