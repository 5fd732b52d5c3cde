"""The ROBDD engine: canonicity, operations, queries."""

import itertools
import random
import sys

import pytest

from repro.bdd import Bdd


@pytest.fixture
def bdd():
    return Bdd(["x", "y", "z"])


class TestBasics:
    def test_terminals(self, bdd):
        assert bdd.FALSE == 0 and bdd.TRUE == 1

    def test_var_is_canonical(self, bdd):
        assert bdd.var("x") == bdd.var("x")

    def test_declare_order(self, bdd):
        assert bdd.var_names == ("x", "y", "z")
        bdd.var("w")
        assert bdd.var_names == ("x", "y", "z", "w")

    def test_negate_involution(self, bdd):
        x = bdd.var("x")
        assert bdd.negate(bdd.negate(x)) == x

    def test_reduction_collapses_redundant_tests(self, bdd):
        x, y = bdd.var("x"), bdd.var("y")
        # (x and y) or (not x and y) == y
        e = bdd.apply_or(bdd.apply_and(x, y), bdd.apply_and(bdd.negate(x), y))
        assert e == y


class TestOperations:
    def test_truth_tables(self, bdd):
        x, y = bdd.var("x"), bdd.var("y")
        cases = list(itertools.product([False, True], repeat=2))
        for vx, vy in cases:
            env = {"x": vx, "y": vy, "z": False}
            assert bdd.evaluate(bdd.apply_and(x, y), env) == (vx and vy)
            assert bdd.evaluate(bdd.apply_or(x, y), env) == (vx or vy)
            assert bdd.evaluate(bdd.apply_xor(x, y), env) == (vx != vy)
            assert bdd.evaluate(bdd.apply_diff(x, y), env) == (vx and not vy)

    def test_ite_shortcuts(self, bdd):
        x = bdd.var("x")
        assert bdd.ite(bdd.TRUE, x, bdd.FALSE) == x
        assert bdd.ite(bdd.FALSE, x, bdd.TRUE) == bdd.TRUE
        assert bdd.ite(x, bdd.TRUE, bdd.FALSE) == x
        assert bdd.ite(x, x, x) == x

    def test_conjoin_disjoin(self, bdd):
        xs = [bdd.var(n) for n in "xyz"]
        conj = bdd.conjoin(xs)
        disj = bdd.disjoin(xs)
        assert bdd.evaluate(conj, {"x": True, "y": True, "z": True})
        assert not bdd.evaluate(conj, {"x": True, "y": False, "z": True})
        assert bdd.evaluate(disj, {"x": False, "y": False, "z": True})
        assert not bdd.evaluate(disj, {"x": False, "y": False, "z": False})

    def test_random_equivalence_against_python_eval(self):
        rng = random.Random(3)
        names = ["a", "b", "c", "d"]
        bdd = Bdd(names)

        def random_formula(depth):
            if depth == 0:
                return rng.choice(names)
            op = rng.choice(["and", "or", "not"])
            if op == "not":
                return ("not", random_formula(depth - 1))
            return (op, random_formula(depth - 1), random_formula(depth - 1))

        def to_bdd(f):
            if isinstance(f, str):
                return bdd.var(f)
            if f[0] == "not":
                return bdd.negate(to_bdd(f[1]))
            g, h = to_bdd(f[1]), to_bdd(f[2])
            return bdd.apply_and(g, h) if f[0] == "and" else bdd.apply_or(g, h)

        def py_eval(f, env):
            if isinstance(f, str):
                return env[f]
            if f[0] == "not":
                return not py_eval(f[1], env)
            if f[0] == "and":
                return py_eval(f[1], env) and py_eval(f[2], env)
            return py_eval(f[1], env) or py_eval(f[2], env)

        for _ in range(40):
            f = random_formula(4)
            node = to_bdd(f)
            for env_bits in itertools.product([False, True], repeat=4):
                env = dict(zip(names, env_bits))
                assert bdd.evaluate(node, env) == py_eval(f, env)


class TestQueries:
    def test_restrict(self, bdd):
        x, y = bdd.var("x"), bdd.var("y")
        e = bdd.apply_and(x, y)
        assert bdd.restrict(e, {"x": True}) == y
        assert bdd.restrict(e, {"x": False}) == bdd.FALSE

    def test_sat_count(self, bdd):
        x, y = bdd.var("x"), bdd.var("y")
        assert bdd.sat_count(bdd.apply_and(x, y)) == 2  # z free
        assert bdd.sat_count(bdd.apply_or(x, y)) == 6
        assert bdd.sat_count(bdd.TRUE) == 8
        assert bdd.sat_count(bdd.FALSE) == 0

    def test_any_sat(self, bdd):
        x, y = bdd.var("x"), bdd.var("y")
        e = bdd.apply_and(x, bdd.negate(y))
        model = bdd.any_sat(e)
        assert model is not None and bdd.evaluate(e, model)
        assert bdd.any_sat(bdd.FALSE) is None

    def test_support(self, bdd):
        x, z = bdd.var("x"), bdd.var("z")
        assert bdd.support(bdd.apply_and(x, z)) == {"x", "z"}
        assert bdd.support(bdd.TRUE) == frozenset()

    def test_iter_models(self, bdd):
        x, y = bdd.var("x"), bdd.var("y")
        e = bdd.apply_and(x, bdd.negate(y))
        models = list(bdd.iter_models(e))
        assert len(models) == 2  # z free
        for model in models:
            assert bdd.evaluate(e, model)

    def test_node_count(self, bdd):
        x = bdd.var("x")
        assert bdd.node_count(x) == 3  # node + two terminals
        assert bdd.node_count(bdd.TRUE) == 1

    def test_deep_chain_no_recursion_error(self):
        # Conjoining a variable *below* a chain rebuilds the whole chain
        # (every node's descendants changed), so this loop is inherently
        # quadratic in the depth: size it from what it must exceed — the
        # recursion limit — rather than a fixed 3000.
        depth = sys.getrecursionlimit() * 3 // 2
        bdd = Bdd()
        acc = bdd.TRUE
        for i in range(depth):
            acc = bdd.apply_and(acc, bdd.var(f"v{i}"))
        assert bdd.node_count(acc) == depth + 2  # deeper than the limit
        assert bdd.sat_count(acc) == 1
