"""Named parameter families and their expansion to periodic-function data.

FAMILIES is the one map from a family name to its constructor and the
parameters it takes; the CLI builds its --family flags from it, and the
README's family table is checked against it.  What the families are:

"general":  the raw four-residue data
"chi":      chi_{2st}^{(n,m)} scaled by c (default 1); a defaults to 0, b to 4st
"hikami":   chi(2, 2u+1, 1, l+1), c=-1/2, a=(2u-2l-1)^2, b=2(8u+4)
"t3-2k":    chi(3, 2^k, 2, 1),  c=-1/2, a=(2^{k+1}-3)^2, b=3*2^{k+2}

Each Config carries the StrangeConfig arguments of its Habiro element:
("hikami", u, l) for hikami(u, l), ("trefoil",) (Kontsevich-Zagier) for any
other configuration with the trefoil sign pattern (M, k1, k2) = (12, 1, 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exact import FormalSeries, series_coefficients
from .periodic import ChiParams, ConfigError, PeriodicFunction, chi_function, make_periodic
from .precision import as_fraction
from .qseries import ThetaSpec


@dataclass(frozen=True)
class Config:
    family: str
    f: PeriodicFunction
    a: int
    b: int
    params: dict = field(default_factory=dict)
    chi_idx: tuple = None  # (s, t, n, m) for character-family configurations
    habiro: tuple = None  # StrangeConfig arguments of the attached Habiro element

    def theta_spec(self, nu: int = 1) -> ThetaSpec:
        return ThetaSpec(a=self.a, b=self.b, nu=nu, f=self.f)

    def series(self, count: int = 64) -> FormalSeries:
        return series_coefficients(self.theta_spec(), count)

    def label(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.family}({inner})"

    def describe(self) -> dict:
        return {
            "family": self.family,
            "params": {k: str(v) for k, v in self.params.items()},
            "c": str(self.f.c),
            "M": self.f.M,
            "k1": self.f.k1,
            "k2": self.f.k2,
            "a": self.a,
            "b": self.b,
        }


def _trefoil_habiro(f: PeriodicFunction):
    """The Kontsevich-Zagier element for the trefoil sign pattern, else None."""
    return ("trefoil",) if (f.M, f.k1, f.k2) == (12, 1, 5) else None


def config_general(c, M: int, k1: int, k2: int, a: int, b: int) -> Config:
    c = as_fraction(c)
    f = make_periodic(c, M, k1, k2)
    if a < 0 or b <= 0:
        raise ConfigError("need a >= 0 and b > 0")
    return Config("general", f, a, b,
                  {"c": c, "M": M, "k1": k1, "k2": k2, "a": a, "b": b},
                  habiro=_trefoil_habiro(f))


def config_chi(s: int, t: int, n: int, m: int, c=Fraction(1), a: int = 0,
               b: int = None) -> Config:
    c = as_fraction(c)
    chi = chi_function(ChiParams(s, t, n, m))
    if c != 1:
        chi = chi.scale(c)
    if b is None:
        b = 4 * s * t
    return Config("chi", chi, a, b, {"s": s, "t": t, "n": n, "m": m, "c": c},
                  chi_idx=(s, t, n, m), habiro=_trefoil_habiro(chi))


def config_hikami(u: int, ell: int) -> Config:
    if u < 1 or not (0 <= ell <= u - 1):
        raise ConfigError("need u >= 1 and 0 <= l <= u-1")
    base = config_chi(2, 2 * u + 1, 1, ell + 1, c=Fraction(-1, 2),
                      a=(2 * u - 2 * ell - 1) ** 2, b=2 * (8 * u + 4))
    return Config("hikami", base.f, base.a, base.b, {"u": u, "l": ell},
                  chi_idx=base.chi_idx, habiro=("hikami", u, ell))


def config_t3_2k(k: int) -> Config:
    if k < 1:
        raise ConfigError("need k >= 1")
    t = 2 ** k
    base = config_chi(3, t, 2, 1, c=Fraction(-1, 2),
                      a=(2 ** (k + 1) - 3) ** 2, b=3 * 2 ** (k + 2))
    return Config("t3-2k", base.f, base.a, base.b, {"k": k}, chi_idx=base.chi_idx,
                  habiro=base.habiro)


# name: (constructor, required flags, passed in order, optional flags, passed
# by keyword); the flag names are the CLI's, without the leading --
FAMILIES = {
    "general": (config_general, ("c", "M", "k1", "k2", "a", "b"), ()),
    "chi": (config_chi, ("s", "t", "n", "m"), ("c", "a", "b")),
    "hikami": (config_hikami, ("u", "l"), ()),
    "t3-2k": (config_t3_2k, ("k",), ()),
}


def trefoil_strange() -> Config:
    """The trefoil in its strange-identity normalisation (c = -1/2, a = 1)."""
    return config_hikami(1, 0)


def trefoil_chi() -> Config:
    """The trefoil character configuration (c = 1, a = 0, b = 24)."""
    return config_chi(2, 3, 1, 1)
