"""Seeded inputs for the three benchmark workloads.

Nothing here imports minkact: the records, the generator matrices and the
conjugations are written out again from the catalog's published definitions,
so that the inputs and the known answers do not come from the program under
test.  Every function is a pure function of its seed arguments, and the
same seed gives byte-identical generator files.

A *pass* is the fixed request set one child runs: the whole catalog replay
for ``verify``, a 60-file stream for ``classify`` and, for ``explore``, a
witness, orbit and export request for each of the 19 non-proper records at
two fresh parameter sets.
"""

import random
from collections import namedtuple
from fractions import Fraction as F

# ---------------------------------------------------------------------------
# The Lie algebra of Minkowski isometries, exactly as the CLI tokens name it
# ---------------------------------------------------------------------------


def _eij(i, j):
    return tuple(tuple(F(1) if (r, c) == (i - 1, j - 1) else F(0) for c in range(4))
                 for r in range(4))


def _madd(*terms):
    """Sum of (coefficient, matrix) pairs."""
    return tuple(tuple(sum((c * m[r][k] for c, m in terms), F(0)) for k in range(4))
                 for r in range(4))


ZERO_V = (F(0),) * 4
LINEAR_TOKENS = ("Yk1", "Yk2", "Yk3", "Ya", "Yn1", "Yn2")
TOKENS = LINEAR_TOKENS + ("e1", "e2", "e3", "e4")
LINEAR = {
    "Yk1": _madd((1, _eij(1, 2)), (-1, _eij(2, 1))),
    "Yk2": _madd((1, _eij(1, 3)), (-1, _eij(3, 1))),
    "Yk3": _madd((1, _eij(2, 3)), (-1, _eij(3, 2))),
    "Ya": _madd((1, _eij(3, 4)), (1, _eij(4, 3))),
    "Yn1": _madd((1, _eij(1, 3)), (1, _eij(1, 4)), (-1, _eij(3, 1)), (1, _eij(4, 1))),
    "Yn2": _madd((1, _eij(2, 3)), (1, _eij(2, 4)), (-1, _eij(3, 2)), (1, _eij(4, 2))),
}
ETA = _madd((1, _eij(1, 1)), (1, _eij(2, 2)), (1, _eij(3, 3)), (-1, _eij(4, 4)))


def el(**coeffs):
    """Algebra element (X, x) from token coefficients, e.g. el(Ya=1, e1=lam)."""
    x = _madd(*((F(c), LINEAR[t]) for t, c in coeffs.items() if t in LINEAR))
    v = tuple(F(coeffs.get(f"e{k}", 0)) for k in range(1, 5))
    return x, v


def matmul(a, b):
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), F(0))
                       for j in range(len(b[0]))) for i in range(len(a)))


def matvec(a, v):
    return tuple(sum((a[i][k] * v[k] for k in range(4)), F(0)) for i in range(4))


def transpose(a):
    return tuple(zip(*a))


def token_coords(elt):
    """Coordinates over TOKENS; the linear part is read off its entries."""
    x, v = elt
    n1, n2 = x[0][3], x[1][3]
    lin = {"Yk1": x[0][1], "Yn1": n1, "Yk2": x[0][2] - n1, "Yn2": n2,
           "Yk3": x[1][2] - n2, "Ya": x[2][3]}
    if _madd(*((lin[t], LINEAR[t]) for t in LINEAR_TOKENS)) != x:
        raise ValueError("linear part is not in the Lorentz algebra")
    return tuple(lin[t] for t in LINEAR_TOKENS) + tuple(v)


def format_element(elt):
    """One generator line in the classify input syntax, e.g. ``Ya + 1/2*e1``."""
    text = ""
    for tok, c in zip(TOKENS, token_coords(elt)):
        if c == 0:
            continue
        mag = tok if abs(c) == 1 else f"{abs(c)}*{tok}"
        if not text:
            text = mag if c > 0 else f"-{mag}"
        else:
            text += f" + {mag}" if c > 0 else f" - {mag}"
    return text or "0"


# ---------------------------------------------------------------------------
# Isometries and their adjoint action
# ---------------------------------------------------------------------------


def adjoint(g, elt):
    """Ad(V, v)(X + x) = VXV^-1 + (Vx - VXV^-1 v), with V^-1 = eta V^t eta."""
    big_v, small_v = g
    x, t = elt
    conj = matmul(big_v, matmul(x, matmul(ETA, matmul(transpose(big_v), ETA))))
    cv = matvec(conj, small_v)
    vt = matvec(big_v, t)
    return conj, tuple(a - b for a, b in zip(vt, cv))


def translation(q):
    return _madd((1, _eij(1, 1)), (1, _eij(2, 2)), (1, _eij(3, 3)), (1, _eij(4, 4))), q


def _inverse3(m):
    det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
           - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
           + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    return tuple(tuple((m[(j + 1) % 3][(i + 1) % 3] * m[(j + 2) % 3][(i + 2) % 3]
                        - m[(j + 1) % 3][(i + 2) % 3] * m[(j + 2) % 3][(i + 1) % 3]) / det
                       for j in range(3)) for i in range(3))


def lorentz(a, b, c, tau):
    """Cayley rotation (I - S)^-1 (I + S) composed with the rational boost
    with half-velocity tau in the (e3, e4) plane."""
    s = ((F(0), -a, -b), (a, F(0), -c), (b, c, F(0)))
    ident = tuple(tuple(F(int(i == j)) for j in range(3)) for i in range(3))
    minus = tuple(tuple(ident[i][j] - s[i][j] for j in range(3)) for i in range(3))
    plus = tuple(tuple(ident[i][j] + s[i][j] for j in range(3)) for i in range(3))
    r3 = matmul(_inverse3(minus), plus)
    rot = tuple(tuple(r3[i]) + (F(0),) for i in range(3)) + ((F(0),) * 3 + (F(1),),)
    d = 1 - tau * tau
    ch, sh = (1 + tau * tau) / d, 2 * tau / d
    boost = ((F(1), F(0), F(0), F(0)), (F(0), F(1), F(0), F(0)),
             (F(0), F(0), ch, sh), (F(0), F(0), sh, ch))
    return matmul(rot, boost), ZERO_V


# ---------------------------------------------------------------------------
# The 27 catalog records: generators, parameters, properness
# ---------------------------------------------------------------------------

TL = {"e3": 1, "e4": -1}  # the null line e3 - e4


class Record:
    def __init__(self, entry_id, params, build, proper):
        self.entry_id = entry_id
        self.params = params  # parameter names, CLI flag order
        self.build = build  # params dict -> list of elements
        self.proper = proper

    @property
    def projective(self):
        """(a, b) mixtures are fitted up to scale, as a = 1."""
        return self.params == ("a", "b")


RECORDS = (
    Record("T1:R3", (), lambda p: [el(e1=1), el(e2=1), el(e3=1)], True),
    Record("T1:R21", (), lambda p: [el(e2=1), el(e3=1), el(e4=1)], True),
    Record("T1:W3", (), lambda p: [el(e1=1), el(e2=1), el(**TL)], True),
    Record("T2:SO11xR2", (), lambda p: [el(Ya=1), el(e1=1), el(e2=1)], False),
    Record("T2:SO2xR11", (), lambda p: [el(Yk1=1), el(e3=1), el(e4=1)], True),
    Record("T2:Ya+le1-W2", ("lam",),
           lambda p: [el(Ya=1, e1=p["lam"]), el(e2=1), el(**TL)], True),
    Record("T2:Ya-W2", (), lambda p: [el(Ya=1), el(e2=1), el(**TL)], False),
    Record("T2:Yn1+me4-W2", ("mu",),
           lambda p: [el(Yn1=1, e4=p["mu"]), el(e2=1), el(**TL)], True),
    Record("T2:Yn1-W2", (), lambda p: [el(Yn1=1), el(e2=1), el(**TL)], False),
    Record("T3:SO21xRe1", (),
           lambda p: [el(Yk3=1), el(Ya=1), el(Yn2=1), el(e1=1)], False),
    Record("T3:AN2xRe1", (), lambda p: [el(Ya=1), el(Yn2=1), el(e1=1)], False),
    Record("T3:SO3xRe4", (),
           lambda p: [el(Yk1=1), el(Yk2=1), el(Yk3=1), el(e4=1)], True),
    Record("T3:K1A-l", (), lambda p: [el(Yk1=1), el(Ya=1), el(**TL)], False),
    Record("T3:Ya+le2-N1-l", ("lam",),
           lambda p: [el(Ya=1, e2=p["lam"]), el(Yn1=1), el(**TL)], False),
    Record("T3:nilpotent-pair", ("lam", "mu"),
           lambda p: [el(Yn1=1, e2=p["lam"]), el(Yn2=1, e1=p["lam"], e2=p["mu"]),
                      el(**TL)], False),
    Record("T3:K1N-l", (),
           lambda p: [el(Yk1=1), el(Yn1=1), el(Yn2=1), el(**TL)], False),
    Record("T3:N-aK1bA-l", ("a", "b"),
           lambda p: [el(Yn1=1), el(Yn2=1), el(Yk1=p["a"], Ya=p["b"]), el(**TL)],
           False),
    Record("T4:SO31", (),
           lambda p: [el(**{t: 1}) for t in LINEAR_TOKENS], False),
    Record("T4:K1AN", (),
           lambda p: [el(Yk1=1), el(Ya=1), el(Yn1=1), el(Yn2=1)], False),
    Record("T4:aK1bA-N", ("a", "b"),
           lambda p: [el(Yk1=p["a"], Ya=p["b"]), el(Yn1=1), el(Yn2=1)],
           False),
    Record("T4:AN", (), lambda p: [el(Ya=1), el(Yn1=1), el(Yn2=1)], False),
    Record("Excluded:SO21", (), lambda p: [el(Yk3=1), el(Ya=1), el(Yn2=1)], False),
    Record("Excluded:SO3", (), lambda p: [el(Yk1=1), el(Yk2=1), el(Yk3=1)], True),
    Record("Excluded:K1N", (), lambda p: [el(Yk1=1), el(Yn1=1), el(Yn2=1)], False),
    Record("Excluded:K1AN-l", (),
           lambda p: [el(Yk1=1), el(Ya=1), el(Yn1=1), el(Yn2=1), el(**TL)], False),
    Record("Excluded:AN-l", (),
           lambda p: [el(Ya=1), el(Yn1=1), el(Yn2=1), el(**TL)], False),
    Record("Excluded:AN1-W2", (),
           lambda p: [el(Ya=1), el(Yn1=1), el(e2=1), el(**TL)], False),
)
RECORD_BY_ID = {r.entry_id: r for r in RECORDS}
NONPROPER = tuple(r for r in RECORDS if not r.proper)

# nonzero, hence admissible for every family, and away from the catalog
# defaults (1, -2, 3, a:b = 1:1, 2:-1)
_PARAM_VALUES = tuple(F(n, d) for n in (-5, -3, -1, 1, 3, 5) for d in (2, 3)) + (F(2), F(-3))
_FLAGS = {"lam": "--lambda", "mu": "--mu", "a": "--a", "b": "--b"}


def random_params(rng, record):
    return {name: rng.choice(_PARAM_VALUES) for name in record.params}


def param_flags(params):
    """``--lambda=-2`` style flags: argparse would read ``-2`` as an option."""
    return [f"{_FLAGS[name]}={value}" for name, value in params.items()]


def _rational(rng, lo=-10, hi=10, dens=(3, 4, 5, 7)):
    d = rng.choice(dens)
    return F(rng.randint(lo * d, hi * d), d)


def random_point(rng):
    return tuple(_rational(rng, dens=(d,)) for d in (3, 4, 5, 7))


def _change_basis(rng, basis):
    """An invertible integer recombination of the basis, shuffled."""
    k = len(basis)
    coeffs = [[F(int(i == j)) for j in range(k)] for i in range(k)]
    for _ in range(k):
        i, j = rng.sample(range(k), 2)
        c = rng.choice((-2, -1, 1, 2))
        coeffs[i] = [a + c * b for a, b in zip(coeffs[i], coeffs[j])]
    rng.shuffle(coeffs)
    out = []
    for row in coeffs:
        x = _madd(*((c, b[0]) for c, b in zip(row, basis)))
        v = tuple(sum((c * b[1][m] for c, b in zip(row, basis)), F(0)) for m in range(4))
        out.append((x, v))
    return out


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


# one CLI call plus what an independent oracle needs to judge it
Request = namedtuple("Request", "argv expect")


def _rng(seed, k, label):
    return random.Random(f"{label}:{seed}:{k}")


def verify_pass(seed, k, _workdir):
    replay_seed = _rng(seed, k, "verify").randrange(1, 10**6)
    return [Request(["verify", "--json", "--seed", str(replay_seed)], {})]


NONCLOSED_PAIRS = (("Yk1", "Yk2"), ("Yk1", "Yk3"), ("Yk2", "Yk3"))


def classify_pass(seed, k, workdir):
    """Every record once as a translation conjugate (the hit path) and once as
    a Lorentz conjugate (the miss path), plus six non-closed rotation pairs."""
    rng = _rng(seed, k, "classify")
    cases = []
    for record in RECORDS:
        params = random_params(rng, record)
        q = random_point(rng)
        basis = _change_basis(rng, [adjoint(translation(q), b)
                                    for b in record.build(params)])
        cases.append((basis, {"kind": "translation", "entry": record.entry_id,
                              "params": {n: str(v) for n, v in params.items()},
                              "projective": record.projective}))
    for record in RECORDS:
        params = random_params(rng, record)
        cayley = [_rational(rng, -3, 3, (1, 2, 3)) for _ in range(3)]
        tau = F(rng.choice((-1, 1)) * rng.randint(1, 4), rng.choice((5, 7)))
        g = lorentz(*cayley, tau)
        q = random_point(rng)
        conj = [adjoint(translation(q), adjoint(g, b)) for b in record.build(params)]
        cases.append((_change_basis(rng, conj),
                       {"kind": "lorentz", "entry": record.entry_id}))
    for _ in range(2):
        for i, j in NONCLOSED_PAIRS:
            q = random_point(rng)
            pair = [el(**{i: rng.choice(_PARAM_VALUES)}), el(**{j: rng.choice(_PARAM_VALUES)})]
            cases.append((_change_basis(rng, [adjoint(translation(q), b) for b in pair]),
                          {"kind": "nonclosed", "entry": None}))
    rng.shuffle(cases)
    requests = []
    for n, (basis, expect) in enumerate(cases):
        path = workdir / f"classify-{k}-{n:02d}.txt"
        path.write_text("".join(format_element(b) + "\n" for b in basis))
        requests.append(Request(["classify", str(path), "--json"], expect))
    return requests


EXPORT_GRID = 4
EXPLORE_ROUNDS = 2  # fresh parameters per record and pass


def explore_pass(seed, k, _workdir):
    """Witness, orbit and export for each non-proper record at fresh parameters."""
    rng = _rng(seed, k, "explore")
    requests = []
    for record in NONPROPER * EXPLORE_ROUNDS:
        params = random_params(rng, record)
        flags = ["--entry", record.entry_id] + param_flags(params)
        point = random_point(rng)
        point_flag = "--point=" + ",".join(str(c) for c in point)
        expect = {"entry": record.entry_id,
                  "params": {n: str(v) for n, v in params.items()},
                  "point": [str(c) for c in point]}
        requests.append(Request(["witness"] + flags + ["--json"], expect))
        requests.append(Request(["orbit"] + flags + [point_flag, "--json"], expect))
        requests.append(Request(["export"] + flags + [point_flag, "--grid",
                                                      str(EXPORT_GRID), "--out", "-"],
                                dict(expect, grid=EXPORT_GRID)))
    return requests


PASSES = {"verify": verify_pass, "classify": classify_pass, "explore": explore_pass}
WORKLOADS = tuple(PASSES)
