import os
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
                     module_to_json, weight_scaling, weighted_module)


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


def test_projector_check_survives_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(lieform.__file__))]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-O", "-c", _NOT_IDEMPOTENT], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "AssertionError projector 0 not idempotent"
