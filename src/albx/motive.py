"""The one-motive of the curve, its dual, and the Albanese receptor.

In characteristic zero a torsion-free formal group is its lattice of
points plus its Lie algebra, and Cartier duality swaps lattices with
tori and vector spaces with infinitesimal groups.  Since every
component of the smooth model here is a projective line, the Picard
part of the motive vanishes: the motive is [F -> 0] for the formal
group F of the curve, and its dual is [0 -> F^v], the linear group
that receives the Abel-Jacobi map.  Both are described by F alone, so
FormalGroupData is the only type that holds the bases.
"""

from .curve import validate
from .funcfield import Place
from .infdiv import divisor_group


def linear_group(rank, dim):
    """Name of the linear group (G_m)^rank x (G_a)^dim, e.g. "Gm^2 x Ga"."""
    factors = []
    if rank:
        factors.append("Gm" if rank == 1 else f"Gm^{rank}")
    if dim:
        factors.append("Ga" if dim == 1 else f"Ga^{dim}")
    return " x ".join(factors) if factors else "1"


class OneMotive:
    """[F -> 0] for a formal group F, or its dual [0 -> F^v] when dual is set.

    The map is identically zero because the Picard group of a disjoint
    union of projective lines is trivial.
    """

    __slots__ = ("formal", "dual")

    def __init__(self, formal, dual=False):
        object.__setattr__(self, "formal", formal)
        object.__setattr__(self, "dual", bool(dual))

    def __setattr__(self, *args):
        raise AttributeError("OneMotive is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, OneMotive)
            and self.formal == other.formal
            and self.dual == other.dual
        )

    def __repr__(self):
        rank, dim = self.formal.rank, self.formal.dim
        if self.dual:
            return f"[Z^0 (+) k^0 -> {linear_group(rank, dim)}]"
        return f"[Z^{rank} (+) k^{dim} -> 1]"


def one_motive(config):
    """The motive [formal group of the curve -> Pic^0 = 0]."""
    return OneMotive(divisor_group(validate(config)))


def dualize(motive):
    """Dual 1-motive: [F -> 0] and [0 -> F^v] are exchanged."""
    return OneMotive(motive.formal, not motive.dual)


def double_dual_check(motive):
    """True iff dualizing twice gives the motive back."""
    return dualize(dualize(motive)) == motive


def base_points_for(config):
    """Smallest nonnegative integer coordinate per component avoiding branches."""
    branch = config.branch_place_set()
    out = {}
    for comp in config.components:
        k = 0
        while Place(comp, k) in branch:
            k += 1
        out[comp] = Place(comp, k)
    return out


def albanese(config):
    """Formal group of the curve, whose Cartier dual is the universal receptor.

    The receptor is (G_m)^rank x (G_a)^dim; the bases of the formal
    group drive the Abel-Jacobi pairing.
    """
    return divisor_group(validate(config))
