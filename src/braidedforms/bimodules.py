"""Hopf bimodules and crossed (Yetter-Drinfeld) modules over a
finite-dimensional Hopf algebra, the coinvariants/smash equivalence, the
tensor product over H with its lambda/rho universal morphisms, the induced
braiding Theta/B and its inverse, the associator and hexagon identities, and
the crossed-module braiding in closed form.  The monoidal operations take the
bimodules alone and build the tensor products over H they read:
tensor_over_H is deterministic, so a rebuilt X (x)_H Y has the same maps.

The base category is finite-dimensional vector spaces with the plain tensor
swap; X (x)_H Y is realized on X (x) coinv(Y), with the cotensor realization
entering only through rho.

HopfBimodule and CrossedModule declare their structure maps once, in a leg
table LEGS: map name -> (source legs, target legs), each leg H or X, so
"XH" is X (x) H, as HopfAlgebraData does with legs H.  The constructor's
shape checks (hopf.set_legs), to_obj (hopf.LegTable), io's one reader
and the transports x.sub(incl) (matrix.restrict over a mono) and
x.quotient(q) (matrix.descend over an epi) all read that table.
induced(x, m) is X (x) M with X's left structure and the diagonal right
structure: the smash product H |x M and the X (x)_H Y of tensor_over_H.
It builds mu_l at once and mu_r, nu_l and nu_r together on the first read
of any of them (_Structure.deferred).  to_obj, sub/quotient, coinvariants
and the checks read them and so build them; classify reads mu_l alone and
never does.
"""

from __future__ import annotations

from .checks import Checks
from .errors import ShapeError
from .hopf import HopfAlgebraData, LegTable, set_legs
from .matrix import (
    Matrix,
    braided_product,
    compose_kron,
    descend,
    hstack,
    kron,
    kron_apply,
    particular_solution,
    restrict,
    solve_epi,
    solve_factor,
    solve_mono,
    swap_matrix,
)


def _sizes(h, dim):
    return {"H": h.dim, "X": dim}.get


class _Structure(LegTable):
    """A space of dimension dim over h with the structure maps of LEGS."""

    def __init__(self, h: HopfAlgebraData, dim: int, *maps, name=""):
        set_legs(self, self.LEGS, _sizes(h, dim), maps)
        self.h = h
        self.dim = dim
        self.name = name

    @classmethod
    def deferred(cls, h: HopfAlgebraData, dim: int, given: dict, rest, name=""):
        """The structure with the maps of given (map name -> map), checked at
        once, and the other maps of LEGS, which rest() returns in LEGS order:
        the first read of any of them runs rest once, checks and sets them
        all, so later reads are plain attributes."""
        obj = cls.__new__(cls)
        set_legs(obj, given, _sizes(h, dim), given.values())
        obj.h, obj.dim, obj.name = h, dim, name
        obj._deferred = [key for key in cls.LEGS if key not in given], rest
        return obj

    def __getattr__(self, key):
        # reached only when key is not set: a deferred map before its first read
        keys, rest = self.__dict__.get("_deferred", ((), None))
        if key not in keys:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {key!r}")
        set_legs(self, keys, _sizes(self.h, self.dim), rest())
        del self._deferred
        return self.__dict__[key]

    def _transport(self, dim, leg, move, name):
        legs = {"H": Matrix.identity(self.h.dim), "X": leg}
        maps = [move(getattr(self, key), [legs[g] for g in src], [legs[g] for g in tgt])
                for key, (src, tgt) in self.LEGS.items()]
        return type(self)(self.h, dim, *maps, name=name)

    def sub(self, incl: Matrix, name=""):
        """The sub-object on Im(incl) for a mono incl, each map restricted to
        it; FactorizationError when Im(incl) is not stable."""
        return self._transport(incl.cols, incl, restrict, name)

    def quotient(self, q: Matrix, name=""):
        """The quotient along an epi q, each map descended through it;
        FactorizationError when Ker(q) is not stable."""
        return self._transport(q.rows, q, descend, name)


class HopfBimodule(_Structure):
    """(X, mu_l, mu_r, nu_l, nu_r) over a Hopf algebra h."""

    LEGS = {"mu_l": ("HX", "X"), "mu_r": ("XH", "X"), "nu_l": ("X", "HX"), "nu_r": ("X", "XH")}


class CrossedModule(_Structure):
    """(M, mu_r, nu_r): right module, right comodule, crossed compatibility."""

    LEGS = {"mu_r": ("XH", "X"), "nu_r": ("X", "XH")}


def _right_laws(x, ea: Matrix, ed: Matrix) -> dict:
    """The laws of x.mu_r and x.nu_r, for the identities ea of H and ed of x."""
    h, mr, nr = x.h, x.mu_r, x.nu_r
    return {"right_module": compose_kron(mr, ed, h.mult) == compose_kron(mr, mr, ea)
            and compose_kron(mr, ed, h.unit) == ed,
            "right_comodule": kron_apply(ed, h.comult, nr) == kron_apply(nr, ea, nr)
            and kron_apply(ed, h.counit, nr) == ed}


def check_hopf_bimodule(x: HopfBimodule) -> Checks:
    h = x.h
    a, d = h.dim, x.dim
    ea, ed = Matrix.identity(a), Matrix.identity(d)
    m, u, cm, cu = h.mult, h.unit, h.comult, h.counit
    ml, mr, nl, nr = x.mu_l, x.mu_r, x.nu_l, x.nu_r
    return Checks({
        "left_module": compose_kron(ml, m, ed) == compose_kron(ml, ea, ml)
        and compose_kron(ml, u, ed) == ed,
        **_right_laws(x, ea, ed),
        "bimodule": compose_kron(mr, ml, ea) == compose_kron(ml, ea, mr),
        "left_comodule": kron_apply(cm, ed, nl) == kron_apply(ea, nl, nl)
        and kron_apply(cu, ed, nl) == ed,
        "bicomodule": kron_apply(nl, ea, nr) == kron_apply(ea, nr, nl),
        # the coactions are module maps: Delta on the acting leg and a middle
        # swap, e.g. nu_l(h.x) = h1 x(-1) (x) h2.x(0)
        "nu_l_left_module_map":
            nl.compose(ml) == braided_product(m, ml, swap_matrix(a, a), cm, nl, (a, a, a, d)),
        "nu_l_right_module_map":
            nl.compose(mr) == braided_product(m, mr, swap_matrix(d, a), nl, cm, (a, d, a, a)),
        "nu_r_left_module_map":
            nr.compose(ml) == braided_product(ml, m, swap_matrix(a, d), cm, nr, (a, a, d, a)),
        "nu_r_right_module_map":
            nr.compose(mr) == braided_product(mr, m, swap_matrix(a, a), nr, cm, (d, a, a, a)),
    })


def check_crossed_module(x: CrossedModule) -> Checks:
    h = x.h
    a, d = h.dim, x.dim
    ea, ed = Matrix.identity(a), Matrix.identity(d)
    m, cm = h.mult, h.comult
    mr, nr = x.mu_r, x.nu_r
    # crossed compatibility, both sides maps X (x) H -> X (x) H:
    # (x <| h_(2))_(0) (x) h_(1) (x <| h_(2))_(1) = (x_(0) <| h_(1)) (x) x_(1) h_(2)
    moved = braided_product(ea, nr.compose(mr), swap_matrix(d, a), ed, cm, (1, d, a, a))
    lhs = kron_apply(ed, m, kron_apply(swap_matrix(a, d), ea, moved))
    rhs = braided_product(mr, m, swap_matrix(a, a), nr, cm, (d, a, a, a))
    return Checks({**_right_laws(x, ea, ed), "crossed_compatibility": lhs == rhs})


# --- standard examples ----------------------------------------------------


def regular_bimodule(h: HopfAlgebraData) -> HopfBimodule:
    return HopfBimodule(h, h.dim, h.mult, h.mult, h.comult, h.comult, name="regular")


def square_bimodule(h: HopfAlgebraData) -> HopfBimodule:
    """H (x) H with multiplication actions and codiagonal coactions."""
    a = h.dim
    ea, eaa, sw = Matrix.identity(a), Matrix.identity(a * a), swap_matrix(a, a)
    nu_l = braided_product(h.mult, eaa, sw, h.comult, h.comult, (a, a, a, a))
    nu_r = braided_product(eaa, h.mult, sw, h.comult, h.comult, (a, a, a, a))
    return HopfBimodule(
        h, a * a, kron(h.mult, ea), kron(ea, h.mult), nu_l, nu_r, name="square"
    )


def trivial_crossed(h: HopfAlgebraData) -> CrossedModule:
    """The unit object: action by the counit, coaction by the unit."""
    one = Matrix.identity(1)
    return CrossedModule(h, 1, kron(one, h.counit), kron(one, h.unit), name="trivial")


def adjoint_crossed(h: HopfAlgebraData) -> CrossedModule:
    """H_ad: right adjoint action x <| g = S(g1) x g2, regular coaction Delta."""
    ea = Matrix.identity(h.dim)
    moved = compose_kron(compose_kron(h.mult, ea, h.mult), swap_matrix(h.dim, h.dim), ea)
    act = compose_kron(moved, ea, kron_apply(h.antipode, ea, h.comult))
    return CrossedModule(h, h.dim, act, h.comult, name="adjoint")


def coadjoint_crossed(h: HopfAlgebraData) -> CrossedModule:
    """H^ad: regular action m, right coadjoint coaction x -> x2 (x) S(x1) x3."""
    ea = Matrix.identity(h.dim)
    moved = kron_apply(swap_matrix(h.dim, h.dim), ea, kron_apply(h.comult, ea, h.comult))
    coact = kron_apply(ea, compose_kron(h.mult, h.antipode, ea), moved)
    return CrossedModule(h, h.dim, h.mult, coact, name="coadjoint")


# --- coinvariants and smash ----------------------------------------------


def coinvariants(x: HopfBimodule):
    """(M, p, i): the left-coinvariants crossed module with p o i = id."""
    h = x.h
    a, d = h.dim, x.dim
    ed = Matrix.identity(d)
    ea = Matrix.identity(a)
    condition = x.nu_l - kron(h.unit, ed)
    i = condition.kernel_basis()
    proj = x.mu_l.compose(kron_apply(h.antipode, ed, x.nu_l))
    p = solve_mono(i, proj)
    if p.compose(i) != Matrix.identity(i.cols):
        raise ShapeError("coinvariant projection does not split the inclusion")
    mu_r = compose_kron(p.compose(x.mu_r), i, ea)
    nu_r = kron_apply(p, ea, x.nu_r.compose(i))
    return CrossedModule(h, i.cols, mu_r, nu_r, name=f"coinv({x.name})"), p, i


def diagonal_structures(x, m: CrossedModule):
    """(mu_r, nu_r) on X (x) M: the diagonal right action
    (x (x) v) <| g = x <| g_(1) (x) v <| g_(2) and the codiagonal right coaction
    x (x) v -> x_(0) (x) v_(0) (x) x_(1) v_(1), for x a Hopf bimodule or crossed
    module (any right module and comodule with mu_r, nu_r and dim)."""
    h = m.h
    a, dx, d = h.dim, x.dim, m.dim
    exm = Matrix.identity(dx * d)
    mu_r = braided_product(x.mu_r, m.mu_r, swap_matrix(d, a), exm, h.comult, (dx, d, a, a))
    nu_r = braided_product(exm, h.mult, swap_matrix(a, d), x.nu_r, m.nu_r, (dx, a, d, a))
    return mu_r, nu_r


def induced(x, m: CrossedModule, name="") -> HopfBimodule:
    """X (x) M for a Hopf bimodule X: the left action and left coaction of X
    on its factor alone, the diagonal right structure of diagonal_structures.
    Only mu_l is built here; the first read of mu_r, nu_l or nu_r builds the
    three of them, so a caller that reads mu_l alone (classify) never pays
    for the right structure."""
    em = Matrix.identity(m.dim)

    def rest():
        mu_r, nu_r = diagonal_structures(x, m)
        return mu_r, kron(x.nu_l, em), nu_r

    return HopfBimodule.deferred(x.h, x.dim * m.dim, {"mu_l": kron(x.mu_l, em)}, rest, name)


def smash(h: HopfAlgebraData, m: CrossedModule) -> HopfBimodule:
    """H |x M: the bimodule induced from the regular one, with its right
    action and its coactions built on first read."""
    return induced(regular_bimodule(h), m, f"smash({m.name})")


def crossed_iso_smash(m: CrossedModule):
    """(mc, alpha, beta): mc = coinvariants(smash(m)), the canonical iso
    alpha: m -> mc and its inverse beta."""
    h = m.h
    x = smash(h, m)
    mc, p, i = coinvariants(x)
    em = Matrix.identity(m.dim)
    alpha = compose_kron(p, h.unit, em)
    beta = kron_apply(h.counit, em, i)
    return mc, alpha, beta


# --- tensor product over H ------------------------------------------------


class TensorOverH:
    def __init__(self, z: HopfBimodule, lam: Matrix, rho: Matrix, coinv: CrossedModule):
        self.z = z
        self.lam = lam          # X (x) Y -> Z, surjective
        self.rho = rho          # Z -> X (x) Y, injective; rho o lam = rho_lambda_formula
        self.coinv = coinv      # the coinvariants of Y


def tensor_over_H(x: HopfBimodule, y: HopfBimodule) -> TensorOverH:
    """X (x)_H Y realized on X (x) coinv(Y), with universal lambda and rho."""
    a = x.h.dim
    mc, p, i = coinvariants(y)
    ea, ex, em = Matrix.identity(a), Matrix.identity(x.dim), Matrix.identity(mc.dim)
    # lam(x (x) y) = x <| y_(-1) (x) p(y_(0)); rho(x (x) v) = x_(0) (x) x_(1) . i(v)
    lam = braided_product(x.mu_r, em, ea, ex, kron_apply(ea, p, y.nu_l), (x.dim, 1, a, mc.dim))
    rho = braided_product(ex, compose_kron(y.mu_l, ea, i), ea, x.nu_r, em, (x.dim, a, 1, mc.dim))
    # the canonical structure on X (x) coinv(Y): coinv(Y) acts through its
    # crossed module structure
    return TensorOverH(induced(x, mc, f"({x.name}(x)H{y.name})"), lam, rho, mc)


def rho_lambda_formula(x: HopfBimodule, y: HopfBimodule) -> Matrix:
    """The explicit composite that rho o lambda must equal on X (x) Y."""
    a = x.h.dim
    return braided_product(x.mu_r, y.mu_l, swap_matrix(a, a), x.nu_r, y.nu_l,
                           (x.dim, a, a, y.dim))


def theta(x: HopfBimodule, y: HopfBimodule) -> Matrix:
    """Theta_{X,Y}: X (x) Y -> Y (x) X inducing the Hopf bimodule braiding."""
    a = x.h.dim
    return braided_product(y.mu_l, x.mu_r, swap_matrix(x.dim, y.dim), x.nu_l, y.nu_r,
                           (a, x.dim, y.dim, a))


def tensor_map_over_H(t: TensorOverH, t2: TensorOverH, f: Matrix, g: Matrix) -> Matrix:
    """The map induced on the tensor products over H by bimodule morphisms
    f: X -> X' and g: Y -> Y', where t is X (x)_H Y and t2 is X' (x)_H Y'."""
    return solve_epi(compose_kron(t2.lam, f, g), t.lam)


def hopf_bimodule_braiding(x: HopfBimodule, y: HopfBimodule) -> Matrix:
    """The unique B: X (x)_H Y -> Y (x)_H X with rho o B o lam = Theta_{X,Y}."""
    return solve_factor(tensor_over_H(y, x).rho, tensor_over_H(x, y).lam, theta(x, y))


def hopf_bimodule_braiding_inverse(x: HopfBimodule, y: HopfBimodule) -> Matrix:
    """The inverse of hopf_bimodule_braiding(x, y), built independently from
    the closed inverse formula: the map Y (x)_H X -> X (x)_H Y
    lam_{X,Y} o phi o rho_{Y,X}, where phi(y (x) x) = x <| S^{-1}(y_(1)) (x) y_(0)
    on Y (x) X."""
    a = x.h.dim
    ex, ey = Matrix.identity(x.dim), Matrix.identity(y.dim)
    act = compose_kron(x.mu_r.compose(swap_matrix(a, x.dim)), x.h.antipode.inverse(), ex)
    coact = swap_matrix(y.dim, a).compose(y.nu_r)
    phi = braided_product(act, ey, swap_matrix(y.dim, x.dim), coact, ex, (a, y.dim, x.dim, 1))
    return tensor_over_H(x, y).lam.compose(phi).compose(tensor_over_H(y, x).rho)


def associator(x: HopfBimodule, y: HopfBimodule, z: HopfBimodule) -> Matrix:
    """The unique a: (X (x)_H Y) (x)_H Z -> X (x)_H (Y (x)_H Z) with
    a o lam(lam (x) id) = lam(id (x) lam) on X (x) Y (x) Z."""
    txy, tyz = tensor_over_H(x, y), tensor_over_H(y, z)
    q1 = compose_kron(tensor_over_H(txy.z, z).lam, txy.lam, Matrix.identity(z.dim))
    q2 = compose_kron(tensor_over_H(x, tyz.z).lam, Matrix.identity(x.dim), tyz.lam)
    return solve_epi(q2, q1)


def hexagon_identities(x: HopfBimodule, y: HopfBimodule, z: HopfBimodule) -> Checks:
    """Both hexagon identities for the Hopf bimodule braiding on (X, Y, Z)."""
    t, braid = tensor_over_H, hopf_bimodule_braiding
    xy, yx, xz, zx, yz, zy = t(x, y).z, t(y, x).z, t(x, z).z, t(z, x).z, t(y, z).z, t(z, y).z
    ex, ey, ez = Matrix.identity(x.dim), Matrix.identity(y.dim), Matrix.identity(z.dim)
    b_xz = braid(x, z)
    a_xyz = associator(x, y, z)
    # hexagon 1: (XY)Z -> Y(ZX)
    lhs1 = associator(y, z, x).compose(braid(x, yz)).compose(a_xyz)
    rhs1 = (tensor_map_over_H(t(y, xz), t(y, zx), ey, b_xz)
            .compose(associator(y, x, z))
            .compose(tensor_map_over_H(t(xy, z), t(yx, z), braid(x, y), ez)))
    # hexagon 2: (XY)Z -> (ZX)Y
    lhs2 = associator(z, x, y).inverse().compose(braid(xy, z))
    rhs2 = (tensor_map_over_H(t(xz, y), t(zx, y), b_xz, ey)
            .compose(associator(x, z, y).inverse())
            .compose(tensor_map_over_H(t(x, yz), t(x, zy), ex, braid(y, z)))
            .compose(a_xyz))
    return Checks({"hexagon_left": lhs1 == rhs1, "hexagon_right": lhs2 == rhs2})


def is_bimodule_morphism(x: HopfBimodule, y: HopfBimodule, f: Matrix) -> bool:
    h = x.h
    ea = Matrix.identity(h.dim)
    return (
        f.compose(x.mu_l) == compose_kron(y.mu_l, ea, f)
        and f.compose(x.mu_r) == compose_kron(y.mu_r, f, ea)
        and kron_apply(ea, f, x.nu_l) == y.nu_l.compose(f)
        and kron_apply(f, ea, x.nu_r) == y.nu_r.compose(f)
    )


# --- Yetter-Drinfeld braiding --------------------------------------------


def yd_braiding(m: CrossedModule, n: CrossedModule) -> Matrix:
    """The crossed-module braiding M (x) N -> N (x) M,
    Psi(m (x) n) = n_(0) (x) m <| n_(1) (Yetter, Math. Proc. Camb. Phil. Soc.
    108, 1990): (id_N (x) mu_M) o (swap_{M,N} (x) id_H) o (id_M (x) nu_N).
    It is the Hopf bimodule braiding of the smash products carried through
    the equivalence with crossed modules."""
    return braided_product(Matrix.identity(n.dim), m.mu_r, swap_matrix(m.dim, n.dim),
                           Matrix.identity(m.dim), n.nu_r, (1, m.dim, n.dim, m.h.dim))


# --- sections of lam ------------------------------------------------------


def lam_sections(t: TensorOverH):
    """Two right inverses of lam: an echelon-based one, and the same one
    perturbed along Ker(lam) (distinct whenever lam is not injective)."""
    n = t.lam.rows
    s1 = particular_solution(t.lam, Matrix.identity(n))
    s2 = s1
    kern = t.lam.kernel_basis()
    if kern.cols:
        bump = kern.col(0)
        s2 = hstack([s1.col(0) + bump] + [s1.col(j) for j in range(1, n)])
    return s1, s2
