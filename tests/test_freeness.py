import inspect
import json
import math
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from arrfree.arrangement import (
    Arrangement,
    Flat,
    Hyperplane,
    RankLimit,
    _bits,
    _charpoly,
    _contract,
    _sub_exponents,
    _sub_levels,
)
from arrfree.catalog import (
    canonical_induction_order,
    group,
    intermediate,
    restriction_by_type,
)
from arrfree import arrangement, freeness
from arrfree.cyclotomic import (Cyc, FormatError, InvalidParameter,
                                root_of_unity)
from arrfree.freeness import (
    InductionCertificate,
    InductionStep,
    InductionTable,
    NecCondReport,
    NecLevel,
    NonFreeInput,
    NotIF,
    RecursionWitness,
    ShapeError,
    StaleCertificate,
    _ChainSearch,
    _chain_step,
    _decide,
    _removal_moves,
    certify_chain,
    check_triple,
    emit_induction_table,
    hereditarily_inductively_free,
    is_inductively_free,
    necessary_condition_counts,
    verify_induction_table,
    verify_recursion_witness,
)

ROOT = Path(__file__).resolve().parent.parent
TABLES = ROOT / "fixtures" / "tables"
BENCH_INPUTS = ROOT / "bench" / "inputs"


def boolean(dim):
    covs = []
    for i in range(dim):
        v = [0] * dim
        v[i] = 1
        covs.append(v)
    return Arrangement(dim, covs)


def test_check_triple():
    assert check_triple((1, 4, 6), (1, 4, 5), (1, 4))
    assert check_triple((1, 7, 9, 11), (1, 7, 9, 10), (1, 7, 9))
    assert not check_triple((1, 4, 6), (1, 4, 4), (1, 4))
    assert not check_triple((1, 4, 6), (1, 3, 6), (1, 4))
    assert not check_triple((1, 4, 6), (1, 4, 5), (1, 5))
    assert not check_triple((1, 4, 6), (1, 4, 6), (1, 4))
    assert check_triple((1,), (0,), ())
    with pytest.raises(ShapeError):
        check_triple((1, 4, 6), (1, 4), (1, 4))
    with pytest.raises(ShapeError):
        check_triple((1, 4, 6), (1, 4, 5), (1, 4, 5))
    # an entry that is not an integer is refused, not truncated; an
    # integral float reads as its integer, and a generator is read once
    with pytest.raises(ShapeError, match="integers"):
        check_triple([1, 4, 5.7], [1, 4, 4], [1, 4])
    with pytest.raises(ShapeError, match="integers"):
        check_triple([1, 4, "6"], [1, 4, 5], [1, 4])
    assert check_triple([1, 4, 6.0], (e for e in (1, 4, 5)), [1, 4])


def _without_submultiset(exps, sub):
    """What is left of exps after removing sub, or None if sub is not inside."""
    left = Counter(exps)
    for v in sub:
        if left[v] <= 0:
            return None
        left[v] -= 1
    return tuple(sorted((+left).elements()))


def _reference_chain_step(exps, restriction_exps, delta=1):
    """The addition-deletion step by multiset difference, as it was coded
    before the rule was reduced to one sum and one sorted comparison."""
    if len(restriction_exps) + 1 != len(exps):
        return None
    rest = _without_submultiset(exps, restriction_exps)
    if rest is None or len(rest) != 1 or rest[0] + delta < 0:
        return None
    return tuple(sorted(restriction_exps + (rest[0] + delta,)))


def _chain_step_cases():
    """Seeded (exps, restriction exps, delta) triples: true sub-multisets
    less one entry, zeros among the entries, an entry swapped for another
    value, wrong lengths, and both deltas."""
    rng = random.Random(20261018)
    cases = []
    for _ in range(600):
        size = rng.randint(1, 5)
        exps = tuple(sorted(rng.randint(0, 4) for _ in range(size)))
        rexp = list(exps)
        del rexp[rng.randrange(len(rexp))]
        kind = rng.randrange(4)
        if kind == 1 and rexp:
            rexp[rng.randrange(len(rexp))] = rng.randint(0, 5)
        elif kind == 2:
            rexp.append(rng.randint(0, 4))
        elif kind == 3 and rexp:
            del rexp[rng.randrange(len(rexp))]
        cases.append((exps, tuple(sorted(rexp)), rng.choice((1, -1))))
    return cases


def _check_chain_step(step):
    outcomes = Counter()
    for exps, rexp, delta in _chain_step_cases():
        want = _reference_chain_step(exps, rexp, delta)
        assert step(exps, rexp, delta) == want, (exps, rexp, delta)
        outcomes[want is None] += 1
    # the cases reach both answers
    assert outcomes[True] and outcomes[False]


def test_chain_step_matches_multiset_difference():
    _check_chain_step(_chain_step)


def test_chain_step_agrees_with_removal_moves():
    # removing entry v of E is the census move for restriction count
    # sum(E) - v, and no other count has a move
    for exps, _, _ in _chain_step_cases():
        moves = _removal_moves(exps)
        for pos, v in enumerate(exps):
            rexp = exps[:pos] + exps[pos + 1:]
            step = _chain_step(exps, rexp, -1)
            assert step == moves.get(sum(exps) - v), (exps, v)
        assert set(moves) == {sum(exps) - v for v in exps if v >= 1}


def test_broken_chain_steps_are_caught():
    def unguarded(exps, rexp, delta=1):
        v = sum(exps) - sum(rexp)
        if sorted(rexp + (v,)) != sorted(exps):
            return None
        return tuple(sorted(rexp + (v + delta,)))

    def sums_only(exps, rexp, delta=1):
        v = sum(exps) - sum(rexp)
        if v + delta < 0:
            return None
        return tuple(sorted(rexp + (v + delta,)))

    for broken in (unguarded, sums_only):
        with pytest.raises(AssertionError):
            _check_chain_step(broken)


def test_trivial_arrangements():
    empty = Arrangement(3, ())
    cert = is_inductively_free(empty)
    assert cert and cert.exponents == (0, 0, 0) and not cert.steps

    single = Arrangement(3, ["a"])
    cert = is_inductively_free(single)
    assert cert and cert.exponents == (0, 0, 1)

    pencil = Arrangement(2, ["a", "b", "a - b", "a + b"])
    cert = is_inductively_free(pencil)
    assert cert.exponents == (1, 3)
    assert cert.replay() == pencil


def test_intermediate_rank3_certificate():
    arr = intermediate(3, 3, 1)
    cert = is_inductively_free(arr)
    assert cert
    assert cert.exponents == (1, 4, 5)
    assert cert.replay() == arr
    # one step per hyperplane
    assert len(cert) == len(arr) == 10
    # every step feeds the next one
    exps = (0, 0, 0)
    for step in cert.steps:
        assert step.exps_before == exps
        nxt = sorted(exps)
        assert Counter(step.restriction_exps) <= Counter(exps)
        exps = step.exps_before
        left = Counter(exps) - Counter(step.restriction_exps)
        (d,) = left.elements()
        exps = tuple(sorted(step.restriction_exps + (d + 1,)))
    assert exps == cert.exponents


def test_monomial_rank3_refuted():
    arr = intermediate(3, 3, 0)
    res = is_inductively_free(arr)
    assert not res
    assert res.reason == "exhausted"
    assert res.level is None
    assert res.explored > 0
    # the characteristic polynomial still splits
    assert arr.candidate_exponents() == (1, 4, 4)


def test_nonsplitting_refutation():
    arr = Arrangement(3, ["a", "b", "c", "a + b + c"])
    res = is_inductively_free(arr)
    assert not res and res.reason == "non-splitting"


def test_half_integer_family_rank4():
    for k in range(5):
        arr = intermediate(2, 4, k)
        cert = is_inductively_free(arr)
        assert cert, f"k={k}"
        assert cert.exponents == arr.candidate_exponents()


def test_rank_limit():
    arr = boolean(5)
    with pytest.raises(RankLimit):
        is_inductively_free(arr)
    cert = is_inductively_free(arr, force=True)
    assert cert and cert.exponents == (1, 1, 1, 1, 1)
    with pytest.raises(RankLimit):
        hereditarily_inductively_free(arr)
    report = hereditarily_inductively_free(arr, force=True)
    assert report.ok and report.verdicts[0] is True


def test_rank_guard_ranks_only_above_dimension_four(monkeypatch):
    # rank <= dim, so an input of dimension <= 4 is never ranked by exact
    # elimination; dimension 5 is, and is refused only above rank 4
    def no_rank(self):
        raise AssertionError("exact rank computed")

    with monkeypatch.context() as mp:
        mp.setattr(Arrangement, "rank", no_rank)
        for arr in (intermediate(3, 3, 1), intermediate(2, 4, 1), boolean(4),
                    restriction_by_type(group("G33"), "A1")):
            is_inductively_free(arr)
            hereditarily_inductively_free(arr)
    with pytest.raises(RankLimit) as exc:
        is_inductively_free(boolean(5))
    assert str(exc.value) == ("rank 5 decision is not guaranteed tractable;"
                              " pass force=True to run it anyway")
    flat = Arrangement(5, [[int(i == j) for j in range(5)] for i in range(4)])
    cert = is_inductively_free(flat)
    assert cert and cert.exponents == (0, 1, 1, 1, 1)
    assert hereditarily_inductively_free(flat).ok


def _canonical_table(r):
    rep = certify_chain(6, r, canonical_induction_order(r, 6))
    return emit_induction_table(intermediate(r, 6, 4), rep.certificate)


def _mutant(module, fn, *edits, **names):
    """fn, a function of module, with each (old, new) piece of its source
    replaced; names are added to its globals."""
    src = inspect.getsource(fn)
    for old, new in edits:
        assert src.count(old) == 1, old
        src = src.replace(old, new)
    namespace = dict(vars(module), **names)
    exec(src, namespace)
    return namespace[fn.__name__]


def _check_replay_memo(monkeypatch, tables):
    """A replay keeps the previous row's restriction, and only within one
    call.  Of the 14 distinct restrictions of a canonical
    intermediate(r, 6, 4) table, in dimension 5, the six of the rows that
    raise the rank, the first row's included, are read off the chain's
    chi with no lattice built, and the other eight are derived from the
    row before by deletion-restriction, which builds 12 lattices in
    dimension 4."""
    builds = Counter()
    real = arrangement._grow_levels

    def counting(vecs, mod, limit, levels):
        # a replay's build runs up to its centre, whose rank is the number
        # of coordinates, also when it has no vectors to count them by
        builds[limit] += 1
        return real(vecs, mod, limit, levels)

    with monkeypatch.context() as m:
        m.setattr(arrangement, "_grow_levels", counting)
        # intermediate(r, 6, 4): 4 + 15 r rows
        for r in (3, 3, 4):
            builds.clear()
            assert verify_induction_table(tables[r])
            assert builds == {4: 12}, (r, builds)


def test_replay_memo_lives_in_one_call(monkeypatch):
    tables = {r: _canonical_table(r) for r in (3, 4)}
    _check_replay_memo(monkeypatch, tables)

    # the previous row never reused, not updated after a rank raise, and
    # the chain's chi and span shared between calls
    broken = (
        (("chi = _deletion_restriction(last, chi, keys, mod, dim - 1, order)",
          "chi = _keys_charpoly(keys, mod, dim - 1, order)"),),
        (("basis, chi = wider, whole[1:]",
          "basis, chi = wider, whole[1:]\n"
          "            yield _integer_roots(chi, len(keys))\n"
          "            continue"),),
        (("whole, basis = (0,) * dim + (1,), ((), ())",
          "whole, basis = _SHARED.get(dim, ((0,) * dim + (1,), ((), ())))"),
         ("last = keys", "_SHARED[dim] = whole, basis\n"
          "        last = keys")),
    )
    for edits in broken:
        chain = _mutant(freeness, freeness._chain_restrictions, *edits,
                        _SHARED={})
        with monkeypatch.context() as m:
            m.setattr(freeness, "_chain_restrictions", chain)
            with pytest.raises(AssertionError):
                _check_replay_memo(monkeypatch, tables)


def _table_chain(path):
    table = InductionTable.parse(path.read_text())
    return table.dim, table.order, [
        Hyperplane.parse(row.form, table.order, table.dim)
        for row in table.rows]


# Chains of type B in dimensions 4 and 5, with every row's restriction
# split, in which rows that keep the rank are far from the row before:
# rows 5 to 9 in dimension 4 by 4, 4, 4, 5 and 4 keys, rows 4, 6 and 8
# to 11 in dimension 5 by 4, 6, 11, 12, 12 and 11 keys.
FAR_CHAINS = (
    (4, ("a", "a + d", "b - d", "c - d", "a - d", "d", "b - c", "a - c",
         "c")),
    (5, ("a + c", "a - e", "c", "a - c", "b + e", "c - e", "c + d", "a",
         "c - d", "a + d", "d + e")),
)


@pytest.fixture(scope="module")
def chain_cases():
    """Chains, each with every row's restriction exponents computed from
    the exact restriction: the shipped tables, the canonical orders, a
    rational chain whose rows 4 and 6 restrict to three planes each, of
    rank 2 and 3, with a non-splitting row 5 between them, the far-row
    chains and a dimension-3 arrangement over Q(zeta_41), which has no
    root mod P."""
    chains = [_table_chain(path) for path in sorted(TABLES.glob("*.tbl"))]
    chains += [_table_chain(BENCH_INPUTS / f"chain_{r}_6_4.tbl")
               for r in (3, 4)]
    chains += [(ell, r, canonical_induction_order(r, ell))
               for r in (2, 3, 4) for ell in (3, 4, 5)]
    chains.append((4, 1, [Hyperplane.parse(form, 1, 4) for form in (
        "c + d", "b", "b + d", "c", "a + b - c", "d")]))
    chains += [(dim, 1, [Hyperplane.parse(form, 1, dim) for form in forms])
               for dim, forms in FAR_CHAINS]
    z = root_of_unity(41)
    covs = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, z, z ** 2], [1, 1, 1]]
    covs += [[1, -z ** j, 0] for j in range(4)]
    covs += [[0, 1, -z ** j] for j in range(3)]
    chains.append((3, 41, [Hyperplane(v, 41) for v in covs]))
    return [_with_restrictions(*chain) for chain in chains]


def _with_restrictions(dim, order, hs):
    """The chain with every row's restriction exponents, computed from
    the exact restriction."""
    expected = []
    for n in range(1, len(hs) + 1):
        larger = Arrangement(dim, hs[:n], order)
        expected.append(larger.restricted(hs[n - 1]).candidate_exponents())
    return dim, order, hs, expected


def _rows_match_restrictions(cases) -> bool:
    for dim, order, hs, expected in cases:
        order = math.lcm(order, *(h.order for h in hs))
        covs = [h.promoted(order).coeffs for h in hs]
        if list(freeness._chain_restrictions(dim, order, covs)) != expected:
            return False
    return True


def test_row_exponents_match_the_restriction(chain_cases, monkeypatch):
    assert len(chain_cases) == 22
    certified = []
    real = freeness._key_vectors

    def recording(*args):
        vecs, mod = real(*args)
        certified.append(mod)
        return vecs, mod

    monkeypatch.setattr(freeness, "_key_vectors", recording)
    assert _rows_match_restrictions(chain_cases)
    # every chain but the one over Q(zeta_41) is read mod P
    assert certified == [True] * 21 + [False]
    with monkeypatch.context() as m:
        m.setattr(arrangement, "_certified", lambda covs, s: False)
        certified.clear()
        assert _rows_match_restrictions(chain_cases)
        assert certified == [False] * 22


def test_replay_derives_far_rows_by_deletion_restriction(chain_cases,
                                                         monkeypatch):
    """A row that keeps the rank gets its chi from the row before by
    deletion-restriction however many keys apart they are: on the
    far-row chains every row's exponents are the exact restriction's,
    mod P and exactly, and the replay builds no lattice in dim - 1
    coordinates, only restrictions one dimension lower."""
    far = chain_cases[-3:-1]
    assert [(dim, len(hs)) for dim, _, hs, _ in far] == [(4, 9), (5, 11)]
    builds = Counter()
    real = arrangement._grow_levels

    def counting(vecs, mod, limit, levels):
        builds[limit] += 1
        return real(vecs, mod, limit, levels)

    # some row that keeps the rank is at least 3 keys from the row before
    for dim, order, hs, _ in far:
        _, rows = _replayed_chis(monkeypatch, freeness._chain_restrictions,
                                 dim, order, hs)
        ranks = [Arrangement(dim, hs[:n], order).rank()
                 for n in range(len(hs) + 1)]
        assert any(ranks[n] == ranks[n + 1] and len(keys ^ rows[n - 1][0])
                   > 2 for n, (keys, _, _) in enumerate(rows) if n)
    # only the first two keys of each difference taken, as a bounded
    # derivation would
    capped = _mutant(freeness, freeness._deletion_restriction,
                     ("sorted(keys - last)", "sorted(keys - last)[:2]"),
                     ("sorted(last - keys)", "sorted(last - keys)[:2]"))
    for certified in (True, False):
        with monkeypatch.context() as m:
            if not certified:
                m.setattr(arrangement, "_certified", lambda covs, s: False)
            m.setattr(arrangement, "_grow_levels", counting)
            for case in far:
                builds.clear()
                assert _rows_match_restrictions([case])
                assert list(builds) == [case[0] - 2], builds
            m.setattr(freeness, "_deletion_restriction", capped)
            assert not _rows_match_restrictions(far)


def test_broken_row_exponents_are_caught(chain_cases, monkeypatch):
    mod_span, rref = arrangement._mod_span, arrangement._rref

    def last_pivots(basis):
        rows, _ = basis
        return rows, tuple(max(c for c, v in enumerate(r) if v) for r in rows)

    def chain(*edits):
        return _mutant(freeness, freeness._chain_restrictions, *edits)

    def near(*edits):
        return _mutant(freeness, freeness._deletion_restriction, *edits)

    # (module, name, broken function, the keys it runs on: True mod P,
    # False exact)
    broken = (
        # a residue left unscaled, mod P and exactly
        (arrangement, "_mod_keys", _mutant(
            arrangement, arrangement._mod_keys,
            ("scale = inv * before % _P", "scale = 1")), (True,)),
        (arrangement, "_exact_keys", _mutant(
            arrangement, arrangement._exact_keys,
            ("inv = next(filter(None, vals)).inverse()", "inv = 1")),
         (False,)),
        # the exponents kept while the size is
        (freeness, "_chain_restrictions", chain(
            ("if chi != before:", "if len(keys) != len(last):")),
         (True, False)),
        # an added key's chi added, a removed key's chi subtracted
        (freeness, "_deletion_restriction", near(
            ("chi = [a - b for", "chi = [a + b for")), (True, False)),
        (freeness, "_deletion_restriction", near(
            ("chi = [a + b for", "chi = [a - b for")), (True, False)),
        # an added key restricted against S' rather than S' less the
        # removed keys
        (freeness, "_deletion_restriction", near(
            ("    for h in", "    t = set(last)\n    for h in")),
         (True, False)),
        # a pivot read from the last nonzero coordinate, not the first
        (arrangement, "_mod_span",
         lambda mcovs, x, k: last_pivots(mod_span(mcovs, x, k)), (True,)),
        (arrangement, "_rref", lambda vecs, rank=None: last_pivots(
            rref(vecs, rank)), (False,)),
    )
    # rows 5, 6 and 7 restrict to four planes each, with exponents
    # (1, 1, 2), None and (1, 1, 2), and each of rows 6 and 7 swaps one key
    # of the row before for another.  In chain_cases, consecutive rows of
    # one size have the same exponents, so the size match does not show
    # there
    cases = chain_cases + [_with_restrictions(4, 1, [
        Hyperplane.parse(form, 1, 4)
        for form in ("a", "b", "c", "d", "a + b + c", "c + d", "a + b")])]
    assert cases[-1][3][4:] == [(1, 1, 2), None, (1, 1, 2)]
    for mod in (True, False):
        with monkeypatch.context() as m:
            if not mod:
                m.setattr(arrangement, "_certified", lambda covs, s: False)
            assert _rows_match_restrictions(cases[-1:])
    for module, name, fn, modes in broken:
        for mod in modes:
            with monkeypatch.context() as m:
                if not mod:
                    m.setattr(arrangement, "_certified", lambda covs, s: False)
                m.setattr(module, name, fn)
                try:
                    caught = not _rows_match_restrictions(cases)
                except RuntimeError:
                    # the generator met a residue of zero, read as no key
                    caught = True
                assert caught, (name, mod)


def _replayed_chis(monkeypatch, chain, dim, order, hs):
    """(keys, chi, mod) of each row of the chain as the given
    `_chain_restrictions` finds them: a row's chi is the last one whose
    roots it took, since a row that keeps its chi takes none, and t^(dim
    - 1), that of no keys, before any."""
    seen = {"chi": (0,) * (dim - 1) + (1,)}

    def key_vectors(*args):
        vecs, seen["mod"] = arrangement._key_vectors(*args)
        return vecs, seen["mod"]

    def keys_over(*args):
        seen["keys"] = arrangement._keys_over(*args)
        return seen["keys"]

    def roots(chi, bound):
        seen["chi"] = tuple(chi)
        return arrangement._integer_roots(chi, bound)

    order = math.lcm(order, *(h.order for h in hs))
    covs = [h.promoted(order).coeffs for h in hs]
    with monkeypatch.context() as m:
        for name, fn in (("_key_vectors", key_vectors),
                         ("_keys_over", keys_over),
                         ("_integer_roots", roots)):
            m.setitem(chain.__globals__, name, fn)
        rows = [(set(seen["keys"]), seen["chi"], seen["mod"])
                for _ in chain(dim, order, covs)]
    return order, rows


def _chis_are_built_ones(monkeypatch, chain, cases, built) -> bool:
    """True when every row's chi is that of its keys' lattice, built
    directly once for each distinct set of keys and kept in built."""
    for dim, order, hs, _ in cases:
        order, rows = _replayed_chis(monkeypatch, chain, dim, order, hs)
        for keys, chi, mod in rows:
            key = (dim, order, mod, frozenset(keys))
            if key not in built:
                built[key] = tuple(arrangement._keys_charpoly(
                    keys, mod, dim - 1, order))
            if chi != built[key]:
                return False
    return True


_CHAIN_MUTANTS = {
    "whole not updated after a row": (
        "whole = tuple(a - b for a, b in zip(whole, (*chi, 0)))", "pass"),
    "the rank probe always reports a raise": (
        "wider = insert(*basis, vec)", "wider = insert(*basis, vec) or basis"),
    "the prefix basis not updated after a raise": (
        "basis, chi = wider, whole[1:]", "chi = whole[1:]"),
}


def test_replay_row_chi_is_the_built_one(chain_cases, monkeypatch):
    """Every row's chi, whether read off the chain's own chi (a row that
    raises the rank), off its size (dimension 3), reused, derived from
    the row before or built, is the chi of its keys' lattice built
    directly, mod P and exactly: on the shipped tables, the canonical
    orders, the rational chain whose rank rises mid-chain and the chain
    over Q(zeta_41)."""
    chain = freeness._chain_restrictions
    built: dict = {}
    for certified in (True, False):
        with monkeypatch.context() as m:
            if not certified:
                m.setattr(arrangement, "_certified", lambda covs, s: False)
            assert _chis_are_built_ones(monkeypatch, chain, chain_cases,
                                        built)
            for what, edit in _CHAIN_MUTANTS.items():
                broken = _mutant(freeness, chain, edit)
                assert not _chis_are_built_ones(monkeypatch, broken,
                                                chain_cases, built), what


def test_replay_reads_a_plane_restriction_off_its_size(monkeypatch):
    """In dimension 3 a row's restriction is c distinct lines in a plane,
    chi = (t - min(c, 1))(t - max(c - 1, 0)): every row of the shipped
    tables, all of dimension 3, agrees with the lattice of its keys,
    mod P and exactly, and their replay builds no lattice."""
    chain = freeness._chain_restrictions
    cases = [(*_table_chain(path), None)
             for path in sorted(TABLES.glob("*.tbl"))]
    assert len(cases) == 7 and {dim for dim, *_ in cases} == {3}
    builds = []
    real = arrangement._grow_levels

    def counting(*args):
        builds.append(args)
        return real(*args)

    # the plane's chi with a sign slip
    broken = _mutant(freeness, chain, ("chi = (lo * hi, -lo - hi, 1)",
                                       "chi = (lo * hi, lo - hi, 1)"))
    built: dict = {}
    for certified in (True, False):
        with monkeypatch.context() as m:
            if not certified:
                m.setattr(arrangement, "_certified", lambda covs, s: False)
            assert _chis_are_built_ones(monkeypatch, chain, cases, built)
            assert not _chis_are_built_ones(monkeypatch, broken, cases,
                                            built)
            m.setattr(arrangement, "_grow_levels", counting)
            for path in sorted(TABLES.glob("*.tbl")):
                assert verify_induction_table(path.read_text())
            assert builds == []


def test_certified_replay_does_no_exact_restriction(chain_cases,
                                                    monkeypatch):
    """A certified chain replays from its covectors mod P: no restricted
    arrangement, no Arrangement but the empty base, no inverse in
    Q(zeta_n)."""
    calls = Counter()
    for owner, name in ((Arrangement, "__init__"),
                        (Arrangement, "restricted"), (Cyc, "inverse")):
        real = getattr(owner, name)

        def counting(*args, real=real, name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    for dim, order, hs, expected in chain_cases:
        if order == 41:
            continue
        calls.clear()
        report = certify_chain(dim, order, hs)
        if report:
            assert [s.restriction_exps for s in report.certificate.steps] \
                == expected
        assert calls == {"__init__": 1}, calls


def test_replay_names_a_repeated_hyperplane():
    text = ("table v1 dim=3 zeta=3\n0,0,0 | a | 0,0\n0,0,1 | b | 0,1\n"
            "0,1,1 | 2*a | 0,1\n1,1,1 | |\n")
    assert verify_induction_table(text).describe() \
        == "row 3: hyperplane a repeated"
    # the same hyperplane given over Q and over Q(zeta_3)
    z = root_of_unity(3)
    hs = [Hyperplane([1, 0, 0], 1), Hyperplane([0, 1, 0], 3),
          Hyperplane([1, -z, 0], 3), Hyperplane([2, 0, 0], 3)]
    assert certify_chain(3, 1, hs).describe() \
        == "row 4: hyperplane a repeated"
    assert certify_chain(3, 1, hs[:3]).exponents == (0, 1, 2)
    with pytest.raises(InvalidParameter, match="dimension 2"):
        certify_chain(3, 1, [Hyperplane([1, 0, 0]), Hyperplane([1, 1])])


def test_canonical_chain_pattern():
    hyps = canonical_induction_order(3, 3)
    report = certify_chain(3, 3, hyps)
    assert report.ok
    cert = report.certificate
    assert cert.exponents == (1, 4, 5)
    before = [s.exps_before for s in cert.steps]
    assert before == [
        (0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 2), (0, 1, 3),
        (1, 1, 3), (1, 2, 3), (1, 3, 3), (1, 3, 4), (1, 4, 4),
    ]
    restr = [s.restriction_exps for s in cert.steps]
    assert restr == [
        (0, 0), (0, 1), (0, 1), (0, 1), (1, 3),
        (1, 3), (1, 3), (1, 3), (1, 4), (1, 4),
    ]


def test_emit_and_verify_round_trip():
    arr = intermediate(3, 3, 1)
    cert = is_inductively_free(arr)
    text = emit_induction_table(arr, cert)
    report = verify_induction_table(text)
    assert report.ok
    assert report.exponents == (1, 4, 5)
    # the rendered table parses back into the same rows
    table = InductionTable.parse(text)
    assert table.final == (1, 4, 5)
    assert len(table.rows) == len(arr)


def test_emit_rejects_foreign_arrangement():
    arr = intermediate(3, 3, 1)
    cert = is_inductively_free(arr)
    with pytest.raises(StaleCertificate):
        emit_induction_table(intermediate(3, 3, 2), cert)


def test_replay_checks_each_step_and_builds_once(monkeypatch):
    arr = intermediate(3, 3, 1)
    cert = is_inductively_free(arr)
    hs = [step.hyperplane for step in cert.steps]
    x1 = Hyperplane([1, 0, 0])  # rational: an order-1 covector
    first = hs.index(x1)
    h = hs[first - 1 if first else 1]

    def replay(hyperplanes):
        steps = [InductionStep(g, (), ()) for g in hyperplanes]
        return InductionCertificate(cert.base, steps, cert.exponents).replay()

    def stale(hyperplanes, form):
        with pytest.raises(StaleCertificate, match="^chain repeats the"
                           f" hyperplane {re.escape(form)}$"):
            replay(hyperplanes)

    # a repeat given at the chain's order 3, at order 1 and at order 6
    stale(hs + [h], h.form())
    stale(hs + [x1], "a")
    stale(hs + [h.promoted(6)], h.promoted(6).form())
    # the first repeat is named: x_1's order-3 copy after x_1 itself
    stale([x1] + hs + [h], "a")
    # a wrong dimension before a repeat raises first
    with pytest.raises(InvalidParameter, match="^hyperplane of dimension 2"
                       " in a dimension-3 arrangement$"):
        replay(hs[:1] + [Hyperplane([1, 0])] + hs)

    built = []
    init = Arrangement.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Arrangement, "__init__", counted)
    got = cert.replay()
    assert len(built) == 1
    assert got == arr and got.hyperplanes == arr.hyperplanes


def test_verify_flags_bad_rows():
    arr = intermediate(3, 3, 1)
    cert = is_inductively_free(arr)
    lines = emit_induction_table(arr, cert).splitlines()

    # corrupt the claimed restriction exponents of row 5
    left, form, _ = lines[5].split("|")
    bad = "\n".join(lines[:5] + [f"{left}|{form}| 0,1"] + lines[6:])
    report = verify_induction_table(bad)
    assert not report.ok
    assert report.failures[0].row == 5
    assert "restriction exponents" in report.failures[0].message

    # corrupt the final exponents
    bad = "\n".join(lines[:-1] + ["1,4,6 | |"])
    report = verify_induction_table(bad)
    assert not report.ok
    assert "final" in report.failures[0].message

    # swapping two chain rows breaks the claimed running exponents
    swapped = "\n".join([lines[0], lines[2], lines[1]] + lines[3:])
    report = verify_induction_table(swapped)
    assert not report.ok
    assert report.failures[0].row == 1


def test_table_parse_errors():
    with pytest.raises(FormatError):
        InductionTable.parse("0,0,0 | a | 0,0\n")
    with pytest.raises(FormatError):
        InductionTable.parse("table v1 dim=3 zeta=3\n0,0,0 | a\n1,1,1 | |\n")
    with pytest.raises(FormatError):
        InductionTable.parse("table v1 dim=3 zeta=3\n0,x,0 | a | 0,0\n")
    with pytest.raises(FormatError):
        InductionTable.parse("table v1 dim=3 zeta=3\n0,0,0 | a | 0,0\n")


def test_boolean_rank4_scan():
    report = necessary_condition_counts(boolean(4))
    assert [lv.count for lv in report.levels] == [4, 6, 4, 1, 0]
    assert report.levels[0].multisets == ((0, 1, 1, 1),)
    assert report.to_lines()[0] == "n=1 N=4 exps=0,1,1,1"
    assert report.to_lines()[-1] == "n=5 N=0 exps="
    # every removal order reaches the empty arrangement
    assert report.death_level is None


def test_census_death_levels():
    for gname, tag, exps, level in (("G33", "A1", (1, 7, 9, 11), 11),
                                    ("G34", "A1^2", (1, 13, 19, 23), 13)):
        arr = restriction_by_type(group(gname), tag)
        report = necessary_condition_counts(arr, exponents=exps)
        assert report.death_level == level, gname


def test_scan_is_deterministic():
    arr = intermediate(2, 4, 1)
    payloads = {json.dumps(necessary_condition_counts(arr).payload(),
                           sort_keys=True) for _ in range(3)}
    assert len(payloads) == 1
    # the census is sequential and takes no thread count
    with pytest.raises(TypeError):
        necessary_condition_counts(arr, threads=2)


def test_census_refuses_exponents_that_are_not_integers():
    arr = intermediate(3, 3, 1)
    with pytest.raises(ShapeError, match="integers"):
        necessary_condition_counts(arr, exponents=(1.9, 4.2, 5))
    report = necessary_condition_counts(arr, exponents=(1, 4, 5.0))
    assert report.exponents == (1, 4, 5)
    assert report.payload() == necessary_condition_counts(
        arr, exponents=iter((5, 4, 1))).payload()


def _reference_census(arr, exponents):
    """The removal census as a full scan: every line is intersected with
    every state's remaining set.  Returns the report and the largest
    number of multisets any one state held."""
    exps = tuple(sorted(exponents))
    m = len(arr)
    lines = arr.line_masks()
    full = (1 << m) - 1
    states = {0: {exps}}
    levels = []
    widest = 1
    n = 0
    while states:
        n += 1
        nxt = {}
        for bmask, msets in sorted(states.items()):
            remaining = full & ~bmask
            counts = [0] * m
            for line in lines:
                inter = line & remaining
                if inter.bit_count() >= 2:
                    for i in range(m):
                        if inter >> i & 1:
                            counts[i] += 1
            for i in range(m):
                if not remaining >> i & 1:
                    continue
                for ms in msets:
                    v = sum(ms) - counts[i]
                    if v < 1 or v not in ms:
                        continue
                    pos = ms.index(v)
                    new = tuple(sorted(ms[:pos] + ms[pos + 1:] + (v - 1,)))
                    nxt.setdefault(bmask | 1 << i, set()).add(new)
        widest = max([widest] + [len(v) for v in nxt.values()])
        union = sorted({ms for vals in nxt.values() for ms in vals})
        levels.append(NecLevel(n, len(nxt), tuple(union)))
        states = nxt
    return NecCondReport(exps, levels), widest


def _random_arrangement(rng, dim, size):
    covs = set()
    while len(covs) < size:
        v = tuple(rng.randint(-1, 1) for _ in range(dim))
        if any(v):
            covs.add(v)
    return Arrangement(dim, [list(v) for v in covs])


def _random_splitting(rng, total, parts):
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _census_cases():
    """(arrangement, exponents) pairs on which the census is compared with
    _reference_census."""
    cases = [(boolean(4), None), (intermediate(2, 4, 1), None)]
    cases += [(intermediate(3, 3, k), None) for k in range(4)]
    cases.append((restriction_by_type(group("G33"), "A1"), (1, 7, 9, 11)))
    # wrong exponents (the true ones are 1,3,4,5 and 1,3,5,5): states
    # there hold two multisets whose descendants differ
    cases.append((intermediate(2, 4, 1), (1, 2, 4, 6)))
    cases.append((intermediate(2, 4, 2), (0, 3, 5, 6)))
    rng = random.Random(20131007)
    for trial in range(30):
        dim = 3 + trial % 2
        arr = _random_arrangement(rng, dim, rng.randint(dim + 2, 9))
        exps = arr.candidate_exponents()
        if exps is None or trial % 3 == 0:
            # a splitting of |A| that need not be the true exponents
            exps = _random_splitting(rng, len(arr), dim)
        cases.append((arr, exps))
    return [(arr, arr.candidate_exponents() if exps is None else exps)
            for arr, exps in cases]


def test_census_matches_reference_scan():
    widest = 1
    survivors = 0
    for arr, exps in _census_cases():
        got = necessary_condition_counts(arr, exponents=exps)
        want, w = _reference_census(arr, exps)
        assert got.payload() == want.payload(), (arr, exps)
        widest = max(widest, w)
        alive = [lv.n for lv in got.levels if lv.count]
        survivors += bool(alive) and alive[-1] == len(arr)
    # the inputs exercise states holding several multisets at once, and
    # censuses that reach the empty arrangement without dying
    assert widest >= 2
    assert survivors >= 1


def test_scan_needs_exponents():
    arr = Arrangement(3, ["a", "b", "c", "a + b + c"])
    with pytest.raises(NonFreeInput):
        necessary_condition_counts(arr)
    report = necessary_condition_counts(arr, exponents=(1, 1, 2))
    assert report.exponents == (1, 1, 2)
    with pytest.raises(ShapeError):
        necessary_condition_counts(arr, exponents=(1, 1))
    # the sum matches the cardinality, so only the sign is wrong
    with pytest.raises(ShapeError, match="nonnegative"):
        necessary_condition_counts(arr, exponents=(-1, 2, 3))


def test_recursion_witness_round_trip():
    base = intermediate(3, 3, 1)
    x1 = Hyperplane.parse("a", 3, 3)
    witness = RecursionWitness(base, [("remove", x1)])
    report = verify_recursion_witness(witness)
    assert report.ok and report
    assert report.exponents == (1, 4, 4)
    assert report.arrangement == intermediate(3, 3, 0)
    assert report.describe() == "witness verified; final exponents 1,4,4"

    # climbing up by an addition needs a certified base as well
    x2 = Hyperplane.parse("b", 3, 3)
    witness = RecursionWitness(base, [("add", x2)])
    report = verify_recursion_witness(witness)
    assert report.ok
    assert report.exponents == (1, 4, 6)
    assert report.arrangement == intermediate(3, 3, 2)


def test_recursion_witness_failures():
    base = intermediate(3, 3, 1)
    x1 = Hyperplane.parse("a", 3, 3)
    x2 = Hyperplane.parse("b", 3, 3)

    report = verify_recursion_witness(RecursionWitness(base, [("remove", x2)]))
    assert not report.ok and "not present" in report.failures[0].message

    report = verify_recursion_witness(RecursionWitness(base, [("add", x1)]))
    assert not report.ok and "already present" in report.failures[0].message
    assert report.failures[0].move == 1
    assert not report
    assert report.describe() == "move 1: a is already present"

    # a base that is not inductively free fails before any move runs
    report = verify_recursion_witness(
        RecursionWitness(intermediate(3, 3, 0), [("add", x1)]))
    assert not report.ok and report.failures[0].move == 0

    with pytest.raises(InvalidParameter):
        RecursionWitness(base, [("swap", x1)])


def test_hereditary():
    report = hereditarily_inductively_free(intermediate(3, 3, 1))
    assert report.ok and report
    report = hereditarily_inductively_free(intermediate(3, 3, 0))
    assert not report.ok and not report
    # only the whole arrangement fails; restrictions have rank two
    assert [v for mask, v in report.verdicts.items() if not v] == [False]
    assert report.verdicts[0] is False


def _random_rank3(rng):
    order = rng.choice((1, 2, 3, 4))
    pool = list(range(-2, 3))
    covs = []
    for _ in range(rng.randint(3, 7)):
        vec = [rng.choice(pool) for _ in range(3)]
        if not any(vec):
            vec[rng.randrange(3)] = 1
        covs.append([c * z for c, z in
                     zip(vec, (1, 1, 1))])
    return Arrangement(3, covs, order)


def _brute_if(arr, cache):
    hit = cache.get(arr)
    if hit is not None:
        return hit
    if arr.rank() <= 2:
        cache[arr] = True
        return True
    ok = False
    for h in arr.hyperplanes:
        sub = arr.without_hyperplane(h)
        restr = arr.restricted(h)
        if not (_brute_if(sub, cache) and _brute_if(restr, cache)):
            continue
        if Counter(restr.candidate_exponents()) <= \
                Counter(sub.candidate_exponents()):
            ok = True
            break
    cache[arr] = ok
    return ok


def test_agrees_with_definition_brute_force():
    rng = random.Random(20240817)
    cache = {}
    for _ in range(30):
        arr = _random_rank3(rng)
        expected = _brute_if(arr, cache)
        assert bool(is_inductively_free(arr)) == expected, arr.to_text()


# -- the exact search the bitmask core replaced, kept as an oracle -----------

def _reference_low_rank_chain(dim, hyperplanes):
    steps = []
    exps = (0,) * dim
    for n, h in enumerate(hyperplanes):
        rexp = (0,) * (dim - 1) if n == 0 else (0,) * (dim - 2) + (1,)
        steps.append(InductionStep(h, exps, rexp))
        exps = _chain_step(exps, rexp)
    return tuple(steps), exps


def _reference_if(arr, cache):
    hit = cache.get(arr)
    if hit is None:
        hit = cache[arr] = _reference_decide(arr, cache)
    return hit


def _reference_decide(arr, cache):
    """The decision as it was done with exact arithmetic at every node: a
    new Arrangement per subarrangement and an exact restriction per
    candidate hyperplane, recursing into the restriction's own decision."""
    dim, order = arr.dim, arr.order
    empty = Arrangement(dim, (), order)
    if arr.rank() <= 2:
        steps, exps = _reference_low_rank_chain(dim, arr.hyperplanes)
        return InductionCertificate(empty, steps, exps)
    top = arr.candidate_exponents()
    if top is None:
        return NotIF(arr, "non-splitting")
    hyps = arr.hyperplanes
    m = len(hyps)
    lines = arr.line_masks()
    through = [tuple(L for L in lines if L >> i & 1) for i in range(m)]
    memo = {}

    def decide(mask, sub):
        if mask in memo:
            return memo[mask]
        if sub is None:
            sub = Arrangement(dim, tuple(hyps[i] for i in _bits(mask)), order)
        if sub.rank() <= 2:
            res = _reference_low_rank_chain(dim, sub.hyperplanes)
            memo[mask] = res
            return res
        cand = sub.candidate_exponents()
        if cand is None:
            memo[mask] = None
            return None
        size = len(sub)
        admissible = {size - b for b in set(cand) if b >= 1}
        options = []
        for i in _bits(mask):
            rc = sum(1 for L in through[i] if (L & mask).bit_count() >= 2)
            if rc not in admissible:
                continue
            restr = sub.restricted(hyps[i])
            rexp = restr.candidate_exponents()
            if rexp is None:
                continue
            left = _without_submultiset(cand, rexp)
            if left is None or len(left) != 1 or left[0] < 1:
                continue
            options.append((rc, i, restr, rexp))
        options.sort(key=lambda t: t[:2])
        for rc, i, restr, rexp in options:
            if not _reference_if(restr, cache):
                continue
            child = decide(mask & ~(1 << i), None)
            if child is None:
                continue
            csteps, cexps = child
            nxt = _chain_step(cexps, rexp)
            if nxt is None:
                continue
            res = (csteps + (InductionStep(hyps[i], cexps, rexp),), nxt)
            memo[mask] = res
            return res
        memo[mask] = None
        return None

    res = decide((1 << m) - 1, arr)
    if res is not None:
        steps, exps = res
        return InductionCertificate(empty, steps, exps)
    level = None
    if arr.rank() >= 4:
        level = necessary_condition_counts(arr, exponents=top).death_level
    return NotIF(arr, "exhausted", level, len(memo))


def _oracle_inputs():
    """Seeded random rank-3/rank-4 arrangements, half of them drawn from
    reflection arrangements so that their polynomials tend to split, and
    the intermediate families, a pencil and a refuted monomial one."""
    rng = random.Random(20261018)
    pools = (intermediate(3, 3, 3), intermediate(2, 4, 4))
    cases = []
    for trial in range(30):
        if trial % 2:
            dim = 3 + trial // 2 % 2
            cases.append(_random_arrangement(rng, dim, rng.randint(4, 9)))
        else:
            pool = pools[trial // 2 % 2]
            hyps = rng.sample(pool.hyperplanes,
                              rng.randint(len(pool) // 2, len(pool) - 1))
            cases.append(Arrangement(pool.dim, hyps, pool.order))
    cases += [intermediate(3, 4, k) for k in range(5)]
    cases += [intermediate(2, 4, k) for k in range(5)]
    cases += [Arrangement(3, ["a", "b", "a - b", "a + b"]),
              intermediate(4, 3, 0)]
    return cases


def _flat_of(arr, mask):
    return Flat.from_covectors([arr.hyperplanes[i] for i in _bits(mask)],
                               arr.dim, arr.order)


def test_bitmask_search_matches_exact_search():
    _check_search_against_exact()


def _check_search_against_exact():
    cache = {}
    seen = Counter()
    for arr in _oracle_inputs():
        want = _reference_decide(arr, cache)
        got = _decide(arr)
        assert bool(got) == bool(want), arr.to_text()
        if want:
            assert got.steps == want.steps, arr.to_text()
            assert got.exponents == want.exponents
            seen["free" if arr.rank() > 2 else "low-rank"] += 1
        else:
            assert (got.reason, got.level, got.explored) == \
                (want.reason, want.level, want.explored), arr.to_text()
            seen[want.reason if want.level is None else "census"] += 1
    # the inputs reach every kind of verdict
    assert set(seen) == {"free", "low-rank", "non-splitting", "exhausted",
                         "census"}, seen


def _walk_search_nodes(monkeypatch, check):
    """Run check(search, mask, cand, counts) at every node that a search
    expands, over the oracle inputs (decision and hereditary) and G33/A1;
    returns the number of nodes."""
    search = _ChainSearch._search
    nodes = []

    def checked(self, mask, cand, counts):
        check(self, mask, cand, counts)
        nodes.append(mask)
        return search(self, mask, cand, counts)

    monkeypatch.setattr(_ChainSearch, "_search", checked)
    for arr in _oracle_inputs():
        _decide(arr)
        hereditarily_inductively_free(arr)
    res = _decide(restriction_by_type(group("G33"), "A1"))
    assert not res and res.explored == 517
    return len(nodes)


def test_passed_down_exponents_match_the_lattice(monkeypatch):
    # every node's roots, read off its parent by deletion-restriction,
    # equal the Moebius roots of its own subarrangement
    def check(search, mask, cand, counts):
        assert cand == _sub_exponents(search.levels, mask, search.dim)

    assert _walk_search_nodes(monkeypatch, check) > 517


def _recounted_counts(levels, mask):
    """Each atom's restriction count in mask, counted from every line as
    _reference_decide counts it; -1 for an atom not in mask."""
    lines = levels[2] if len(levels) > 2 else ()
    return [sum(1 for L in lines if L >> i & 1 and (L & mask).bit_count() >= 2)
            if mask >> i & 1 else -1
            for i in range(levels[-1][0].bit_length())]


def _check_carried_counts(monkeypatch):
    def check(search, mask, cand, counts):
        assert counts == _recounted_counts(search.levels, mask), \
            f"carried counts differ at mask {mask:#x}"

    return _walk_search_nodes(monkeypatch, check)


def test_carried_counts_match_a_recount(monkeypatch):
    # a root counts its atoms' lines afresh, every other node carries its
    # parent's counts through _drop, the census's update
    assert _check_carried_counts(monkeypatch) > 517


def test_broken_count_updates_are_caught(monkeypatch):
    drop = freeness._drop

    def no_decrement(counts, i, left, split):
        child = counts.copy()
        child[i] = -1
        return child

    def removed_atom_kept(counts, i, left, split):
        child = drop(counts, i, left, split)
        child[i] = counts[i]
        return child

    def parent_counts(counts, i, left, split):
        return counts

    # the census shares the update, so its levels go wrong as well
    arr = intermediate(2, 4, 1)
    want = _reference_census(arr, arr.candidate_exponents())[0].payload()
    for variant in (no_decrement, removed_atom_kept, parent_counts):
        with monkeypatch.context() as mp:
            mp.setattr(freeness, "_drop", variant)
            with pytest.raises(AssertionError, match="carried counts"):
                _check_carried_counts(mp)
            assert necessary_condition_counts(arr).payload() != want


def test_split_rebuilds_the_lines_through_each_atom():
    # pairs[i] and longer[i] hold every line through i, less i, once
    for arr in _oracle_inputs():
        levels = arr.intersection_lattice().levels
        lines = levels[2] if len(levels) > 2 else ()
        pairs, longer = freeness._split(len(arr), lines)
        for i in range(len(arr)):
            through = [line for line in lines if line >> i & 1]
            assert all(line.bit_count() >= 2 for line in longer[i])
            rebuilt = [1 << j for j in _bits(pairs[i])] + longer[i]
            assert sorted(rebuilt) == sorted(line ^ 1 << i
                                             for line in through)


def test_broken_split_kernel_is_caught(monkeypatch):
    # each variant of the two-member-line kernel, or of the census's
    # tables per set of multisets, breaks the carried counts of the
    # search or the census's levels
    split, drop = freeness._split, freeness._drop
    census = freeness.necessary_condition_counts
    kernel = {
        "_split": [
            # a partner mask that keeps i itself
            _mutant(freeness, split, ("] |= line ^ low", "] |= line")),
            # a three-member line folded into the partner mask
            _mutant(freeness, split,
                    ("line.bit_count() == 2", "line.bit_count() <= 3"))],
        # longer lines skipped
        "_drop": [_mutant(freeness, drop,
                          ("for line in longer[i]:", "for line in ():"))],
    }
    cases = _census_cases()
    wants = [_reference_census(arr, exps)[0].payload()
             for arr, exps in cases]

    def census_differs(count):
        return any(count(arr, exponents=exps).payload() != want
                   for (arr, exps), want in zip(cases, wants))

    for name, variants in kernel.items():
        for variant in variants:
            with monkeypatch.context() as mp:
                mp.setattr(freeness, name, variant)
                with pytest.raises(AssertionError, match="carried counts"):
                    _check_carried_counts(mp)
                assert census_differs(freeness.necessary_condition_counts)
    for edits in (
            # a removal table keyed by only one multiset of the state's set
            [("tables.get(key)", "tables.get(max(key))"),
             ("tables[key] = {}", "tables[max(key)] = {}")],
            # a merge that drops the incoming multisets
            [("= have | news", "= have")],
            # a table that also drops the counts a hyperplane has at most
            [("if rc <= cap:", "if rc < cap:")]):
        assert census_differs(_mutant(freeness, census, *edits))


# the paper's refuted restrictions of rank 4 that the search decides, and
# how many subarrangements it explores on each
_REFUTED = {("G33", "A1"): 517, ("G34", "A1^2"): 2388}


def test_counts_are_made_only_for_expanded_nodes(monkeypatch):
    # a child's counts are made on a memo miss, so no search (nor the
    # census) counts one subarrangement of one lattice twice
    drop = freeness._drop
    seen = set()

    def once(counts, i, left, split):
        assert (id(split), left) not in seen, f"mask {left:#x} recounted"
        seen.add((id(split), left))
        return drop(counts, i, left, split)

    monkeypatch.setattr(freeness, "_drop", once)
    for tag, explored in (("A1", 517), ("A1^2", 2388)):
        arr = restriction_by_type(group("G33" if tag == "A1" else "G34"), tag)
        seen.clear()
        res = _decide(arr)
        assert not res and res.explored == explored
        assert seen


def test_restriction_exponents_are_computed_once(monkeypatch):
    # a search computes each restriction's roots once per subarrangement;
    # the restriction searches, and so their levels, live through _decide.
    # Only restrictions of dimension >= 3 get a lattice: lines in a plane
    # are read off their count (test_plane_exponents_match_the_slow_path)
    sub = freeness._sub_exponents
    seen = set()

    def once(levels, mask, dim):
        assert dim >= 3, "a restriction to lines in a plane was built"
        assert (id(levels), mask) not in seen
        seen.add((id(levels), mask))
        return sub(levels, mask, dim)

    monkeypatch.setattr(freeness, "_sub_exponents", once)
    calls = 0
    for arr in _oracle_inputs():
        seen.clear()
        _decide(arr)
        calls += len(seen)
    for (name, tag), explored in _REFUTED.items():
        seen.clear()
        res = _decide(restriction_by_type(group(name), tag))
        assert not res and res.explored == explored
        calls += len(seen)
    assert calls > 400  # 436: 212 before G34/A1^2, 224 on it


def test_plane_exponents_match_the_slow_path(monkeypatch):
    # in dimension 3 the search reads each restriction's roots off its
    # count; the lattice contracted at the atom gives the same roots for
    # every atom of every subarrangement the searches reach, in the
    # dimension-3 oracle inputs, the paper's seven restrictions and the
    # dimension-3 restriction searches of its two refuted ones
    search = _ChainSearch._search
    contracted = {}
    sizes = set()

    def check(self, mask, cand, counts):
        if self.dim == 3:
            for i in _bits(mask):
                key = (id(self.levels), i)
                through = [L for L in self.levels[2] if L >> i & 1]
                if key not in contracted:
                    contracted[key], atoms = _contract(self.levels, 1 << i, 1)
                    # the contraction's atoms are the lines through i
                    assert atoms == through
                    assert freeness._plane_exps(0) == \
                        _sub_exponents(contracted[key], 0, 2)
                left = mask & ~(1 << i)
                rmask = sum(1 << j for j, line in enumerate(through)
                            if line & left)
                assert freeness._plane_exps(counts[i]) == \
                    _sub_exponents(contracted[key], rmask, 2), \
                    f"atom {i} of mask {mask:#x}"
                sizes.add(counts[i])
        return search(self, mask, cand, counts)

    monkeypatch.setattr(_ChainSearch, "_search", check)
    paper = [Arrangement(dim, hyps, order) for dim, order, hyps in
             map(_table_chain, sorted(TABLES.glob("*.tbl")))]
    for arr in [a for a in _oracle_inputs() if a.dim == 3] + paper:
        contracted.clear()
        _decide(arr)
    for (name, tag), explored in _REFUTED.items():
        contracted.clear()
        res = _decide(restriction_by_type(group(name), tag))
        assert not res and res.explored == explored
    assert sizes == set(range(1, 15))


def test_broken_plane_exponents_are_caught(monkeypatch):
    for variant in (lambda c: (1, c), lambda c: (0, c), lambda c: (1, 1)):
        monkeypatch.setattr(freeness, "_plane_exps", variant)
        with pytest.raises(AssertionError):
            _check_search_against_exact()


def test_broken_deletion_exponents_are_caught(monkeypatch):
    step = freeness._chain_step
    broken = (
        # the deleted entry raised instead of lowered
        lambda e, r, d=1: step(e, r, 1 if d == -1 else d),
        # the parent's roots passed down unchanged
        lambda e, r, d=1: e if d == -1 and step(e, r, d) else step(e, r, d),
    )
    for variant in broken:
        monkeypatch.setattr(freeness, "_chain_step", variant)
        with pytest.raises(AssertionError):
            _check_search_against_exact()


def test_subarrangement_and_restriction_lattices_match_exact():
    rng = random.Random(7)
    for arr in _oracle_inputs():
        levels = arr.intersection_lattice().levels
        m = len(arr)
        for _ in range(4):
            mask = rng.getrandbits(m)
            atoms = list(_bits(mask))
            sub = Arrangement(arr.dim, [arr.hyperplanes[i] for i in atoms],
                              arr.order)
            want = [sorted(sum(1 << atoms[j] for j in _bits(x)) for x in lv)
                    for lv in sub.intersection_lattice().levels]
            assert [sorted(lv) for lv in _sub_levels(levels, mask)] == want
        for k, level in enumerate(levels):
            if k == 0 or k >= arr.dim:
                continue
            for x in level:
                restr = arr.restricted(_flat_of(arr, x))
                got, atoms = _contract(levels, x, k)
                assert len(atoms) == len(restr)
                assert _charpoly(got, arr.dim - k) == \
                    restr.characteristic_polynomial()
                # flats of each rank, by how many hyperplanes they hold
                assert [sorted(y.bit_count() for y in lv) for lv in got] == \
                    [sorted(y.bit_count() for y in lv)
                     for lv in restr.intersection_lattice().levels]


def _hereditary_want(arr, decide):
    """The hereditary verdict map from exact restrictions, each decided on
    its own by decide."""
    want = {}
    for k, level in enumerate(arr.intersection_lattice().levels):
        if k >= arr.dim:
            continue
        for x in level:
            if arr.dim - k <= 2:
                want[x] = True
            else:
                sub = arr if k == 0 else arr.restricted(_flat_of(arr, x))
                want[x] = bool(decide(sub))
    return want


def test_hereditary_matches_exact_restrictions(monkeypatch):
    cache = {}
    cases = [(arr, _hereditary_want(arr, lambda s: _reference_if(s, cache)))
             for arr in _oracle_inputs()]
    g33_a1 = restriction_by_type(group("G33"), "A1")
    cases.append((g33_a1, _hereditary_want(g33_a1, _decide)))
    assert cases[-1][1][0] is False

    # the ambient space goes through the same search as every other flat,
    # so no census runs for a death level that the verdict map drops
    def no_census(*args, **kwargs):
        raise AssertionError("the census ran")

    monkeypatch.setattr(freeness, "necessary_condition_counts", no_census)
    for arr, want in cases:
        report = hereditarily_inductively_free(arr)
        assert report.verdicts == want, arr.to_text()
        assert report.ok == all(want.values())
