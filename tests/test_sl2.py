import random
import subprocess
import sys
from fractions import Fraction

import pytest

import lieform
from lieform import (LocalizedAtP, Matrix, NotNilpotentEnough, OutOfRange,
                     PrimeField, QQ, SchemaError, chain_from_highest,
                     conjugate, counterexample_module, direct_sum, det,
                     exp_nilpotent, extend_torus, inverse,
                     lattice_closed_under_action, module_from_json,
                     module_to_json, solve_linear, weight_scaling,
                     weighted_module)


def ident(n):
    return Matrix.identity(QQ, n)


def col_basis(n, cols):
    return Matrix.from_rows(QQ, [[1 if c == r else 0 for c in cols]
                                 for r in range(n)])


def test_chain_frozen_j2_p5():
    c = chain_from_highest(2, 5)
    assert c.weights == (-2, 0, 2)
    assert c.lattice == ident(3)
    assert c.action["h"].rows() == [[2, 0, 0], [0, 0, 0], [0, 0, -2]]
    assert c.action["x"].rows() == [[0, 2, 0], [0, 0, 1], [0, 0, 0]]
    assert c.action["y"].rows() == [[0, 0, 0], [1, 0, 0], [0, 2, 0]]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_chain_relations_every_j(p):
    for j in range(1, p):
        c = chain_from_highest(j, p)
        assert len(c.weights) == j + 1
        assert lattice_closed_under_action(c)
        h, x, y = (c.action[k] for k in "hxy")
        # x climbs j steps then dies; y the same downwards
        top = Matrix.column(QQ, [1] + [0] * j)
        v = top
        for _ in range(j + 1):
            v = x @ v
        assert v.is_zero()
        xj = ident(j + 1)
        for _ in range(j):
            xj = x @ xj
        assert not xj.is_zero()
        # raising then lowering the highest vector scales by a p-unit
        v = top
        for _ in range(j):
            v = y @ v
        for _ in range(j):
            v = x @ v
        scale = v.col(0)[0]
        assert scale != 0 and scale.numerator % p != 0


def test_chain_input_validation():
    for j, p in [(0, 5), (5, 5), (7, 5), (-1, 3)]:
        with pytest.raises(OutOfRange):
            chain_from_highest(j, p)
    with pytest.raises(OutOfRange):
        chain_from_highest(1, 4)


def test_weighted_module_validation_errors():
    with pytest.raises(ValueError):
        weighted_module(6, ident(1), (0,), {0: ident(1)})
    with pytest.raises(ValueError):        # lattice not invertible
        weighted_module(5, Matrix.from_rows(QQ, [[1, 1], [1, 1]]), (0, 2),
                        {0: col_basis(2, [0]), 2: col_basis(2, [1])})
    with pytest.raises(ValueError):        # pieces keyed off the weights
        weighted_module(5, ident(2), (0, 2), {0: col_basis(2, [0]),
                                              4: col_basis(2, [1])})
    with pytest.raises(ValueError):        # pieces fail to span
        weighted_module(5, ident(2), (0, 2), {0: col_basis(2, [0]),
                                              2: col_basis(2, [0])})
    with pytest.raises(ValueError):        # duplicate weights
        weighted_module(5, ident(2), (2, 2), {2: ident(2)})


def test_weighted_module_action_validation():
    c = chain_from_highest(1, 5)
    good = dict(c.action)
    bad = dict(good)
    bad["x"] = good["x"].scale(Fraction(2))      # breaks [x, y] = h
    with pytest.raises(ValueError):
        weighted_module(5, c.lattice, c.weights, c.pieces, bad)
    bad = dict(good)
    bad["x"] = good["x"].scale(Fraction(1, 5))   # denominator hits p
    with pytest.raises(ValueError):
        weighted_module(5, c.lattice, c.weights, c.pieces, bad)


def test_counterexample_structure():
    for p in (2, 3, 5):
        m = counterexample_module(p)
        assert m.weights == tuple(range(-p, p + 1, 2))
        assert lattice_closed_under_action(m)
        assert m.lattice.raw(0, 0) == Fraction(1, p)
        assert m.lattice.raw(p, 0) == Fraction(1, p)


def test_counterexample_fails_with_frozen_witness():
    for p, chain_expect in [(2, (-2, 0, 2)), (3, (-3, 3)), (5, (-5, 5))]:
        m = counterexample_module(p)
        r = extend_torus(m)
        assert not r.success
        assert r.path == "saturation"
        wchain, vec = r.failure_witness
        assert wchain == chain_expect
        expect = [Fraction(0)] * (p + 1)
        expect[0] = expect[p] = Fraction(1, p)
        assert list(vec) == expect


def test_extend_torus_chain_uses_projector_polynomials():
    for j, p in [(1, 3), (2, 5), (4, 5), (6, 7)]:
        c = chain_from_highest(j, p)
        r = extend_torus(c)
        assert r.success and r.path == "polynomial-projectors"
        assert sorted(r.projectors) == sorted(c.weights)


def test_lagrange_projectors_weights_zero_one():
    m = weighted_module(2, ident(2), (0, 1),
                        {0: col_basis(2, [0]), 1: col_basis(2, [1])})
    r = extend_torus(m)
    assert r.success and r.path == "polynomial-projectors"
    assert r.projectors[0].rows() == [[1, 0], [0, 0]]
    assert r.projectors[1].rows() == [[0, 0], [0, 1]]


def test_projector_identities_over_local_ring():
    c = chain_from_highest(2, 5)
    r = extend_torus(c)
    l5 = LocalizedAtP(5)
    n = 3
    total = Matrix(l5, n, n, tuple(l5.zero() for _ in range(n * n)))
    for w in c.weights:
        pw = r.projectors[w]
        assert pw.ring == l5
        assert (pw @ pw) == pw
        total = total + pw
    assert total == Matrix.identity(l5, n)


def test_action_missing_routes():
    from lieform import ActionMissing, HypothesisNotMet
    # weights {1, -1} collide mod 2 but sit inside (-2, 2): the
    # saturation route applies and needs the action
    m = weighted_module(2, ident(2), (1, -1),
                        {1: col_basis(2, [0]), -1: col_basis(2, [1])})
    with pytest.raises(ActionMissing):
        extend_torus(m)
    # weights {3, -3} at p = 3 fail every p-type
    m = weighted_module(3, ident(2), (3, -3),
                        {3: col_basis(2, [0]), -3: col_basis(2, [1])})
    with pytest.raises(HypothesisNotMet):
        extend_torus(m)


def test_direct_sum_and_conjugate_roundtrip():
    a = chain_from_highest(1, 5)
    b = chain_from_highest(2, 5)
    s = direct_sum(a, b)
    assert s.ambient_dim == 5
    assert s.weights == (-2, -1, 0, 1, 2)
    assert lattice_closed_under_action(s)
    u = Matrix.from_rows(QQ, [
        [1, 2, 0, 0, 0], [0, 1, 0, 0, 0], [0, 3, 1, 0, 0],
        [0, 0, 0, 1, 0], [4, 0, 0, 0, 1]])
    assert det(u) == 1
    sc = conjugate(s, u)
    r = extend_torus(sc)
    assert r.success
    for w, pc in r.pieces.items():
        assert pc.ncols == s.pieces[w].ncols


def test_conjugate_validation():
    c = chain_from_highest(1, 5)
    with pytest.raises(ValueError):
        conjugate(c, Matrix.from_rows(QQ, [[1, 1], [1, 1]]))
    with pytest.raises(ValueError):
        conjugate(c, Matrix.from_rows(QQ, [[Fraction(1, 5), 0], [0, 1]]))


def test_random_type1_direct_sums_decompose():
    rng = random.Random(7)
    for _ in range(10):
        p = rng.choice([5, 7])
        parts = [chain_from_highest(rng.randint(1, p - 1), p)
                 for _ in range(rng.randint(1, 3))]
        m = parts[0]
        for extra in parts[1:]:
            m = direct_sum(m, extra)
        from lieform import classify_p_type
        if not classify_p_type(m.weights, p).is_type1:
            continue
        n = m.ambient_dim
        u_rows = [[0] * n for _ in range(n)]
        for i in range(n):
            u_rows[i][i] = 1
            for j in range(i + 1, n):
                u_rows[i][j] = rng.randint(-2, 2)
        m2 = conjugate(m, Matrix.from_rows(QQ, u_rows))
        r = extend_torus(m2)
        assert r.success


def test_exp_frozen_mod3():
    c = chain_from_highest(2, 3)
    f3 = PrimeField(3)
    adx = c.action["x"].map_to_ring(f3)
    e = exp_nilpotent(adx, 3)
    expect = (Matrix.identity(f3, 3) + adx
              + (adx @ adx).scale(f3.from_int(2)))
    assert e == expect


def test_exp_is_multiplicative_sample():
    c = chain_from_highest(4, 5)
    f5 = PrimeField(5)
    u = c.action["x"].map_to_ring(f5)
    for s in range(5):
        for t in range(5):
            left = exp_nilpotent(u.scale(f5.from_int(s + t)), 5)
            right = (exp_nilpotent(u.scale(f5.from_int(s)), 5)
                     @ exp_nilpotent(u.scale(f5.from_int(t)), 5))
            assert left == right


def test_exp_rejects_slow_nilpotents():
    f3 = PrimeField(3)
    jordan4 = Matrix.from_rows(f3, [[0, 1, 0, 0], [0, 0, 1, 0],
                                    [0, 0, 0, 1], [0, 0, 0, 0]])
    with pytest.raises(NotNilpotentEnough):
        exp_nilpotent(jordan4, 3)
    with pytest.raises(OutOfRange):
        exp_nilpotent(jordan4, 4)
    with pytest.raises(ValueError):
        exp_nilpotent(Matrix.from_rows(f3, [[0, 1]]), 3)


def test_weight_scaling_conjugates_exp():
    c = chain_from_highest(2, 5)
    f5 = PrimeField(5)
    u = c.action["x"].map_to_ring(f5)
    for t in (1, 2, 3, 4):
        d = weight_scaling(c, f5, t)
        lhs = d @ exp_nilpotent(u, 5) @ inverse(d)
        t2 = f5.mul(f5.from_int(t), f5.from_int(t))
        rhs = exp_nilpotent(u.scale(t2), 5)
        assert lhs == rhs


def test_json_roundtrip():
    c = chain_from_highest(2, 5)
    doc = module_to_json(c)
    back = module_from_json(doc)
    assert back == c
    nc = counterexample_module(3)
    assert module_from_json(module_to_json(nc)) == nc


def test_json_schema_error_paths():
    doc = module_to_json(chain_from_highest(2, 5))

    bad = {k: v for k, v in doc.items() if k != "p"}
    with pytest.raises(SchemaError) as e:
        module_from_json(bad)
    assert e.value.path == "/p"

    import copy
    bad = copy.deepcopy(doc)
    bad["lattice"][1][0] = "3/"
    with pytest.raises(SchemaError) as e:
        module_from_json(bad)
    assert e.value.path == "/lattice/1/0"

    bad = copy.deepcopy(doc)
    bad["pieces"]["0"][2][0] = True
    with pytest.raises(SchemaError) as e:
        module_from_json(bad)
    assert e.value.path == "/pieces/0/2/0"

    bad = copy.deepcopy(doc)
    bad["pieces"]["zero"] = bad["pieces"].pop("0")
    with pytest.raises(SchemaError) as e:
        module_from_json(bad)
    assert e.value.path == "/pieces/zero"

    bad = copy.deepcopy(doc)
    bad["weights"][0] = "minus two"
    with pytest.raises(SchemaError) as e:
        module_from_json(bad)
    assert e.value.path == "/weights/0"

    bad = copy.deepcopy(doc)
    del bad["action"]["y"]
    with pytest.raises(SchemaError) as e:
        module_from_json(bad)
    assert e.value.path == "/action/y"

    with pytest.raises(SchemaError) as e:
        module_from_json([1, 2, 3])
    assert e.value.path == ""


def test_json_semantic_errors_are_value_errors():
    doc = module_to_json(chain_from_highest(2, 5))
    doc["p"] = 7                   # weights no longer p-compatible? still fine
    module_from_json(doc)          # distinct integers: accepted
    import copy
    bad = copy.deepcopy(doc)
    bad["weights"] = [0, 2]        # pieces keys no longer match
    with pytest.raises(ValueError):
        module_from_json(bad)


_NOT_IDEMPOTENT = """
from lieform import Matrix, QQ
from lieform.sl2 import _assert_projector_family
assert False  # stripped under -O
try:
    _assert_projector_family({0: Matrix.identity(QQ, 2).scale(2),
                              1: Matrix.identity(QQ, 2).scale(-1)}, 2)
except AssertionError as exc:
    print(type(exc).__name__, exc)
"""


def test_projector_check_survives_python_O(child_env):
    out = subprocess.run([sys.executable, "-O", "-c", _NOT_IDEMPOTENT], env=child_env,
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "AssertionError projector 0 not idempotent"


# -- every decomposition route, pinned: a seeded corpus of chains,
# counterexamples and conjugated direct sums, with and without an action,
# on their own lattices and on sublattices or superlattices of index p

def _unitriangular(n, rng, lower):
    return Matrix.from_rows(QQ, [[1 if r == c else rng.randint(-2, 2)
                                  if (r > c) == lower else 0 for c in range(n)]
                                 for r in range(n)])


def _sl2_corpus():
    mods = [chain_from_highest(j, p) for p in (2, 3, 5, 7) for j in range(1, p)]
    mods += [counterexample_module(p) for p in (2, 3, 5)]
    mods.append(module_from_json({
        "p": 3, "lattice": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "weights": [0, 1],
        "pieces": {"0": [[1, 0], [0, 1], ["1/3", "1/3"]], "1": [[1], [0], [0]]}}))
    parts = {p: [counterexample_module(p)] + [chain_from_highest(j, p) for j in range(1, min(p, 4))]
             for p in (2, 3, 5)}
    rng = random.Random(23)
    for _ in range(40):
        p = rng.choice((2, 3, 3, 5, 5))
        m = direct_sum(rng.choice(parts[p]), rng.choice(parts[p][1:]))
        n = m.ambient_dim
        m = conjugate(m, _unitriangular(n, rng, True) @ _unitriangular(n, rng, False))
        k, scale = rng.randrange(n), rng.choice((p, Fraction(1, p)))
        sub = m.lattice @ _unitriangular(n, rng, False) @ Matrix.from_rows(
            QQ, [[scale if r == c == k else int(r == c) for c in range(n)] for r in range(n)])
        # conjugate keeps the validated structure, and a lattice change keeps it
        mods += [lieform.sl2.WeightedModule(p, lattice, m.weights, m.pieces, action)
                 for lattice in (m.lattice, sub) for action in (m.action, None)]
    return mods


def _strs(mat):
    return [[str(v) for v in mat.row(i)] for i in range(mat.nrows)]


def _outcome(fn, *args):
    try:
        return _strs(fn(*args))
    except (lieform.RingError, lieform.Singular) as exc:
        return type(exc).__name__


def _decomposition_record(m):
    p = m.p
    rec = {"weights": m.weights, "closed": lattice_closed_under_action(m),
           "scaling": [_outcome(weight_scaling, m, LocalizedAtP(p), p + 1),
                       _outcome(weight_scaling, m, PrimeField(p), p - 1 or 1)]}
    if m.action is not None:
        rec["exp"] = _outcome(exp_nilpotent, m.action["x"].map_to_ring(PrimeField(p)), p)
    try:
        r = extend_torus(m)
    except (lieform.ActionMissing, lieform.HypothesisNotMet) as exc:
        rec["raised"] = type(exc).__name__
        return rec
    rec.update(
        success=r.success, path=r.path,
        ptype=(r.report.is_type1, r.report.is_type2, r.report.is_type3),
        pieces=[(w, _strs(pc)) for w, pc in sorted(r.pieces.items())],
        projectors=[(w, repr(pi.ring), _strs(pi)) for w, pi in sorted(r.projectors.items())],
        witness=r.failure_witness and (r.failure_witness[0],
                                       [str(v) for v in r.failure_witness[1]]))
    return rec


def test_decompositions_match_pinned_digest():
    import hashlib
    records = [_decomposition_record(m) for m in _sl2_corpus()]
    outcomes = [r.get("raised") or (r["path"], r["success"]) for r in records]
    for kind in ("ActionMissing", "HypothesisNotMet", ("saturation", True),
                 ("saturation", False), ("polynomial-projectors", True)):
        assert kind in outcomes
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == "362e0dff2e098186db0399e6d08332529faf75d0d3ecc4b21eaf8c4b1e1c232d", digest


def _grading_operator(m):
    """h as the action gives it, or S·diag·S⁻¹ for S the pieces side by side."""
    if m.action is not None:
        return m.action["h"]
    s = Matrix.hstack(*[m.pieces[w] for w in m.weights])
    ws = [w for w in m.weights for _ in range(m.pieces[w].ncols)]
    diag = Matrix.from_rows(QQ, [[ws[r] if r == c else 0 for c in range(len(ws))]
                                 for r in range(len(ws))])
    return s @ diag @ inverse(s)


def _lagrange_projectors(m):
    """prod_{u != w} (h_lat - u)/(w - u) over QQ for each weight w, with
    h_lat the grading operator in lattice coordinates."""
    h_lat = inverse(m.lattice) @ _grading_operator(m) @ m.lattice
    one = ident(m.ambient_dim)
    projs = {}
    for w in m.weights:
        projs[w] = one
        for u in m.weights:
            if u != w:
                projs[w] = projs[w] @ (h_lat - one.scale(Fraction(u))).scale(Fraction(1, w - u))
    return projs


def test_polynomial_route_projectors_are_the_lagrange_polynomials():
    # the projectors are built from the saturations; where the weights are
    # distinct mod p and h preserves the lattice they are, being unique,
    # the interpolation polynomials in h
    cases = [chain_from_highest(j, p) for p in (3, 5, 7) for j in range(1, p)]
    for m in _sl2_corpus():
        try:
            if extend_torus(m).path == "polynomial-projectors":
                cases.append(m)
        except (lieform.ActionMissing, lieform.HypothesisNotMet):
            pass
    assert len(cases) > 15
    for m in cases:
        r = extend_torus(m)
        assert r.success and r.path == "polynomial-projectors"
        lagrange = _lagrange_projectors(m)
        for w in m.weights:
            assert r.projectors[w] == lagrange[w].map_to_ring(LocalizedAtP(m.p)), w


def test_transports_keep_the_validators_invariants(monkeypatch):
    # direct_sum and conjugate do not re-validate what they build; the
    # validator, run on every sum and conjugate of the pinned corpus and of
    # the random type-1 sums, must accept each and rebuild an equal module
    outputs = []

    def recording(transport):
        def run(*args):
            outputs.append(transport(*args))
            return outputs[-1]
        return run

    module = sys.modules[__name__]
    monkeypatch.setattr(module, "direct_sum", recording(direct_sum))
    monkeypatch.setattr(module, "conjugate", recording(conjugate))
    _sl2_corpus()
    test_random_type1_direct_sums_decompose()
    assert len(outputs) > 80
    for m in outputs:
        assert weighted_module(m.p, m.lattice, m.weights, m.pieces, m.action) == m


def _builtins():
    """Every chain module and counterexample at p <= 13."""
    return [m for p in (2, 3, 5, 7, 11, 13)
            for m in [chain_from_highest(j, p) for j in range(1, p)] + [counterexample_module(p)]]


def test_builtins_keep_the_validators_invariants():
    # chain_from_highest and counterexample_module build from closed
    # formulas and do not re-validate; the validator must accept each
    # builtin and rebuild an equal module
    for m in _builtins():
        assert weighted_module(m.p, m.lattice, m.weights, m.pieces, m.action) == m
        assert lattice_closed_under_action(m)


def _grading_operator_keeps_the_lattice(m):
    """The hypothesis the path label names, computed from h: the weights
    are distinct mod p and h is p-integral in lattice coordinates."""
    if not lieform.classify_p_type(m.weights, m.p).is_type1:
        return False
    h_lat = solve_linear(m.lattice, _grading_operator(m) @ m.lattice)
    return all(v.denominator % m.p for v in h_lat.data)


def test_path_label_is_the_grading_operator_criterion(monkeypatch):
    # extend_torus reads "polynomial-projectors" off type 1 and a decomposed
    # lattice; on the pinned corpus, every builtin at p <= 13 and the random
    # type-1 sums, that must be the hypothesis computed from h
    mods = _sl2_corpus() + _builtins()
    sums, decompose = [], extend_torus
    monkeypatch.setattr(sys.modules[__name__], "extend_torus",
                        lambda m: sums.append(m) or decompose(m))
    test_random_type1_direct_sums_decompose()
    assert len(sums) > 3
    labels = []
    for m in mods + sums:
        expected = _grading_operator_keeps_the_lattice(m)
        if m.action is None and not expected:
            # without an action only the polynomial route may run
            with pytest.raises((lieform.ActionMissing, lieform.HypothesisNotMet)):
                decompose(m)
            continue
        labels.append(decompose(m).path == "polynomial-projectors")
        assert labels[-1] == expected
    assert labels.count(True) > 40 and labels.count(False) > 40


def _chain_action(**changes):
    c = chain_from_highest(1, 5)
    return weighted_module(5, c.lattice, c.weights, c.pieces, {**c.action, **changes})


_C15 = chain_from_highest(1, 5)

# (call, error class, message): the named errors of the sl2 layer that the
# tests above reach without checking their message, or do not reach
SL2_ERRORS = [
    (lambda: weighted_module(5, Matrix.identity(PrimeField(5), 1), (0,), {0: ident(1)}),
     ValueError, "lattice must be rational"),
    (lambda: weighted_module(5, ident(1), (0,), {0: Matrix.zeros(QQ, 1, 0)}), ValueError,
     "piece 0 must be a nonempty rational basis in the ambient space"),
    (lambda: weighted_module(5, ident(2), (0,), {0: col_basis(2, [0])}), ValueError,
     "piece ranks sum to 1, ambient dimension is 2"),
    (lambda: weighted_module(5, _C15.lattice, _C15.weights, _C15.pieces,
                             {"h": _C15.action["h"], "x": _C15.action["x"]}),
     ValueError, "action must provide exactly h, x, y"),
    (lambda: _chain_action(h=ident(3)), ValueError,
     "action 'h' must be an ambient square matrix"),
    (lambda: _chain_action(h=_C15.action["h"].scale(2)), ValueError, "[h, x] = 2x fails"),
    (lambda: _chain_action(y=_C15.action["y"] + _C15.action["x"]), ValueError,
     "[h, y] = -2y fails"),
    (lambda: weighted_module(5, _C15.lattice, _C15.weights,
                             {-1: _C15.pieces[1], 1: _C15.pieces[-1]}, _C15.action),
     ValueError, "h does not act as -1 on its weight piece"),
    (lambda: counterexample_module(4), OutOfRange, "4 is not prime"),
    (lambda: direct_sum(_C15, chain_from_highest(1, 7)), ValueError,
     "summands live over different primes"),
    (lambda: conjugate(_C15, Matrix.identity(PrimeField(5), 2)), ValueError,
     "conjugator must be an ambient rational square matrix"),
    # weights distinct mod 5, one outside (-5, 5); the lattice does not decompose
    (lambda: extend_torus(weighted_module(5, Matrix.from_rows(QQ, [[5, 1], [0, 1]]), (0, 6),
                                          {0: col_basis(2, [0]), 6: col_basis(2, [1])})),
     lieform.HypothesisNotMet,
     "weights are distinct mod 5 but the grading operator does not preserve the lattice"),
]


@pytest.mark.parametrize("call,error,message", SL2_ERRORS)
def test_sl2_named_errors(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def _edited(edit):
    doc = module_to_json(chain_from_highest(1, 5))
    edit(doc)
    return doc


@pytest.mark.parametrize("doc,path,message", [
    (_edited(lambda d: d.update(p=4)), "/p", "expected a prime integer"),
    (_edited(lambda d: d.update(p=True)), "/p", "expected a prime integer"),
    (_edited(lambda d: d.update(lattice=[])), "/lattice", "expected a non-empty array of rows"),
    (_edited(lambda d: d.update(lattice="1")), "/lattice", "expected a non-empty array of rows"),
    (_edited(lambda d: d["lattice"].__setitem__(0, [])), "/lattice/0",
     "expected a non-empty row"),
    (_edited(lambda d: d["lattice"][1].append(0)), "/lattice/1", "row length 3, expected 2"),
    (_edited(lambda d: d["lattice"][0].__setitem__(0, 1.5)), "/lattice/0/0",
     "expected an integer or an 'a/b' string"),
    (_edited(lambda d: d.update(weights={"0": 1})), "/weights", "expected an array"),
    (_edited(lambda d: d.update(pieces=[[1]])), "/pieces", "expected an object keyed by weight"),
    (_edited(lambda d: d.update(action=[])), "/action", "expected an object with h, x, y"),
    (_edited(lambda d: d.pop("weights")), "/weights", "missing"),
])
def test_json_schema_errors_name_their_node(doc, path, message):
    with pytest.raises(SchemaError) as exc:
        module_from_json(doc)
    assert (exc.value.path, exc.value.message) == (path, message)
    assert str(exc.value) == "%s: %s" % (path, message)


def test_module_ring_is_the_localization():
    assert _C15.ring == LocalizedAtP(5)
    assert counterexample_module(3).ring == LocalizedAtP(3)
