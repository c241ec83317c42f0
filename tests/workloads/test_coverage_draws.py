"""``coverage_utility`` replays numpy's draws and builds array-first.

The reference is the per-element loop the builder used to run:
``gen.integers(1, s + 1)`` for a row's size, then ``gen.choice(U,
size, replace=False)`` for its skills.  The replay must give the same
rows and leave the generator exactly where the loop leaves it (a
knapsack recipe draws its weights from the same generator next), for
every bit generator and whatever was drawn before.  The named
``CoverageFunction.from_arrays`` form must be the mapping-built
instance on the same covers: same fingerprint payload, ground set,
universe, values and kernel arrays.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.functions import CoverageFunction, WeightedCoverageFunction
from repro.engine.hashing import canonical_json
from repro.errors import InvalidInstanceError
from repro.workloads.secretary_streams import _coverage_rows, coverage_utility

BIT_GENERATORS = {
    "PCG64": np.random.PCG64,
    "MT19937": np.random.MT19937,
    "SFC64": np.random.SFC64,
    "Philox": np.random.Philox,
}


def loop_rows(gen, n, universe, skills):
    """The draws ``coverage_utility`` replays, made one numpy call at a time."""
    rows = []
    for _ in range(n):
        size = min(universe, max(1, int(gen.integers(1, skills + 1))))
        rows.append({int(j) for j in gen.choice(universe, size=size, replace=False)})
    return rows


def loop_utility(n, universe, skills, gen):
    rows = loop_rows(gen, n, universe, skills)
    return CoverageFunction({f"s{i}": {f"u{j}" for j in row} for i, row in enumerate(rows)})


def state(gen):
    """The generator's full state, arrays as lists (MT19937 keeps one)."""
    def plain(x):
        if isinstance(x, dict):
            return {k: plain(v) for k, v in x.items()}
        return x.tolist() if isinstance(x, np.ndarray) else x
    return plain(gen.bit_generator.state)


def twin_generators(bit_generator, seed, pre):
    gens = [np.random.Generator(BIT_GENERATORS[bit_generator](seed)) for _ in range(2)]
    for gen in gens:
        if pre == "uint32":  # leaves half a 64-bit word buffered
            gen.integers(0, 2**32, dtype=np.uint32)
        elif pre == "double":
            gen.random()
    return gens


def kernel_arrays(fn):
    k = fn._coverage_kernel()
    return k.elements, k.items, k.index, k.indptr.tolist(), k.indices.tolist()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 300),
    universe=st.one_of(st.integers(1, 40), st.sampled_from([666, 10001, 20001, 3 * 10**9])),
    skills=st.one_of(st.integers(1, 8), st.just(600)),
    seed=st.integers(0, 2**32 - 1),
    bit_generator=st.sampled_from(sorted(BIT_GENERATORS)),
    pre=st.sampled_from(["none", "uint32", "double"]),
)
def test_replay_matches_the_numpy_loop(n, universe, skills, seed, bit_generator, pre):
    ref, gen = twin_generators(bit_generator, seed, pre)
    want = loop_rows(ref, n, universe, skills)
    indptr, indices = _coverage_rows(gen, n, universe, skills)
    got = [set(indices[a:b]) for a, b in zip(indptr, indptr[1:])]
    assert got == want
    assert state(gen) == state(ref)


@pytest.mark.parametrize("n,universe,skills", [
    (1, 1, 1), (60, 25, 4), (300, 666, 4), (40, 20001, 600), (50, 3 * 10**9, 8),
    (150, 3 * 10**9, 600),  # ~108k words: reads past the first 65,536-word block
])
@pytest.mark.parametrize("bit_generator", sorted(BIT_GENERATORS))
def test_whole_instance_equals_the_loop_built_one(n, universe, skills, bit_generator):
    ref, gen = twin_generators(bit_generator, 7, "none")
    want = loop_utility(n, universe, skills, ref)
    got = coverage_utility(n, universe, skills_per_secretary=skills, rng=gen)
    assert canonical_json(got.canonical_payload()) == canonical_json(want.canonical_payload())
    assert kernel_arrays(got) == kernel_arrays(want)
    assert got.ground_set == want.ground_set and got.universe == want.universe
    assert state(gen) == state(ref)


# -- the named CSR form against the mapping build ----------------------------


def _random_covers(rng, names, item_names):
    return {
        e: {item_names[j] for j in rng.choice(len(item_names), int(rng.integers(0, 5)),
                                               replace=False)}
        for e in names
    }


def _csr(covers, names, item_names):
    item_id = {u: j for j, u in enumerate(item_names)}
    rows = [sorted(item_id[u] for u in covers[e]) for e in names]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    return indptr, [j for row in rows for j in row]


def old_mapping_kernel(covers):
    """The per-row ``sorted`` build the canonicalisation routine replaced."""
    elements = sorted(covers, key=repr)
    items = sorted(set().union(*covers.values()), key=repr)
    item_index = {u: j for j, u in enumerate(items)}
    rows = [sorted(item_index[u] for u in covers[e]) for e in elements]
    indptr = np.cumsum([0] + [len(r) for r in rows]).tolist()
    index = {e: i for i, e in enumerate(elements)}
    return elements, items, index, indptr, [j for row in rows for j in row]


NAMINGS = {
    "str": (lambda i: f"s{i}", lambda j: f"u{j}"),
    "int": (lambda i: 3 * i + 1, lambda j: 100 - j),
    "tuple": (lambda i: (i % 3, f"e{i}"), lambda j: (j, -j)),
}


@pytest.mark.parametrize("naming", sorted(NAMINGS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_named_arrays_equal_the_mapping_build(naming, seed):
    rng = np.random.default_rng(seed)
    element_name, item_name = NAMINGS[naming]
    names = [element_name(i) for i in rng.permutation(30).tolist()]
    item_names = [item_name(j) for j in rng.permutation(12).tolist()]
    covers = _random_covers(rng, names, item_names)
    mapping = CoverageFunction(covers)
    indptr, indices = _csr(covers, names, item_names)
    named = CoverageFunction.from_arrays(indptr, indices, elements=names, items=item_names)
    assert kernel_arrays(mapping) == old_mapping_kernel(covers)
    assert kernel_arrays(named) == kernel_arrays(mapping)
    assert canonical_json(named.canonical_payload()) == canonical_json(mapping.canonical_payload())
    assert named.ground_set == mapping.ground_set
    assert named.universe == mapping.universe
    for subset in ([], names[:1], names[3:9], names):
        assert named.value(frozenset(subset)) == mapping.value(frozenset(subset))
        for backend in ("dense", "sparse"):
            ev = named.fast_evaluator(backend)
            ev.add_set(subset)
            assert ev.gains(names).tolist() == [
                mapping.value(frozenset(subset) | {e}) - mapping.value(frozenset(subset))
                for e in names
            ]


def test_the_weighted_mapping_build_keeps_its_item_weights():
    covers = {("a", 1): {2, 3}, 5: {3, "x"}, "b": set()}
    fn = WeightedCoverageFunction(covers, {2: 0.5, "x": 4.0})
    kernel = fn._coverage_kernel()
    assert kernel_arrays(fn) == old_mapping_kernel(covers)
    assert kernel.items == ["x", 2, 3]  # by repr: "'x'" < "2" < "3"
    assert kernel.weights.tolist() == [4.0, 0.5, 1.0]
    assert fn.value(frozenset(covers)) == 5.5


def test_named_rows_are_deduplicated_and_unnamed_ids_default():
    fn = CoverageFunction.from_arrays([0, 3, 3], [1, 1, 0], elements=["b", "a"])
    assert fn.ground_set == {"a", "b"}
    assert fn.covered(frozenset({"b"})) == {0, 1}
    assert canonical_json(fn.canonical_payload()) == canonical_json(
        CoverageFunction({"b": {0, 1}, "a": set()}).canonical_payload()
    )


# -- refused inputs --------------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    dict(skills_per_secretary=0),
    dict(skills_per_secretary=-3),
    dict(skills_per_secretary=2**32 + 1),
    dict(universe_size=2**32),
    dict(universe_size=0),
    dict(n=0),
])
def test_coverage_utility_refuses_what_it_cannot_replay(kwargs):
    args = dict(n=5, universe_size=10, skills_per_secretary=4)
    args.update(kwargs)
    gen = np.random.default_rng(0)
    before = state(gen)
    with pytest.raises(InvalidInstanceError):
        coverage_utility(args.pop("n"), args.pop("universe_size"), rng=gen, **args)
    assert state(gen) == before


@pytest.mark.parametrize("indptr,indices,names,items", [
    ([0, 1, 2], [0, 1], ["a"], ["x", "y"]),            # one name, two rows
    ([0, 1, 2], [0, 1], ["a", "a"], ["x", "y"]),       # repeated element name
    ([0, 1, 2], [0, 1], ["a", "b"], ["x", "x"]),       # repeated item name
    ([0, 1, 2], [0, 2], ["a", "b"], ["x", "y"]),       # id past the item names
    ([0, 1, 2], [0, -1], ["a", "b"], ["x", "y"]),      # negative id
])
def test_named_from_arrays_refuses_inconsistent_names(indptr, indices, names, items):
    with pytest.raises(InvalidInstanceError):
        CoverageFunction.from_arrays(indptr, indices, elements=names, items=items)
