"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every assertion is exact; there are no tolerances anywhere in this module.
"""

import hashlib
import itertools
import json
import random
from contextlib import contextmanager
from fractions import Fraction

from helpers import ad_nullity, mat_vec, rand_jordan_type, rand_nilpotent, rand_traceless
from lieorbits import linalg
from lieorbits.cli import main as cli_main
from lieorbits.minorbit import min_orbit_report
from lieorbits.orbits import (
    dominance_leq,
    closure_leq_rank,
    hasse_diagram,
    jordan_matrix,
    minimal_orbit,
    orbit_dim_partition,
    partitions,
    regular_orbit,
)
from lieorbits.rootsys import (
    CartanType,
    build_root_system,
    reflect_root,
    solve_coroot_coords,
)
from lieorbits.sln import (
    ad_matrix,
    bracket,
    centralizer_dim,
    invariants_phi,
    is_nilpotent,
    is_semisimple,
    jordan_chevalley,
    kks_matrix,
    orbit_dim,
)
from lieorbits.ssorbits import (
    GaussianRational,
    TorusElement,
    compactification_dims,
    in_fundamental_domain,
    ss_orbit_dim,
    verify_dual_parabolic,
)
from lieorbits.topology import exponents, poincare_polynomial
from lieorbits.triples import kostant_principal, principal_triple_sln, verify_matrix_triple

SUITE_TYPES = (
    [("A", n) for n in range(1, 8)]
    + [("B", n) for n in range(2, 5)]
    + [("C", n) for n in range(2, 5)]
    + [("D", n) for n in range(3, 6)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)

RANK_LE_4 = [(f, n) for f, n in SUITE_TYPES if n <= 4]

RANK_LE_8 = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(3, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:02d}: {text}")
        raise
    print(f"[PASS] criterion {num:02d}: {text}")


def test_criterion_01_root_system_integrity():
    with criterion(1, "root-system integrity for all suite types, E8 has 240 roots"):
        for family, rank in SUITE_TYPES:
            rs = build_root_system(CartanType(family, rank))
            coeff_set = {r.coeffs for r in rs.roots}
            assert {tuple(-c for c in v) for v in coeff_set} == coeff_set
            assert len(rs.roots) == 2 * len(rs.positive_roots)
            for r in rs.roots:
                for i in range(1, rank + 1):
                    assert reflect_root(rs, i, r).coeffs in coeff_set
            assert rs.dim_g == rank + len(rs.roots)
        e8 = build_root_system(CartanType("E", 8))
        assert len(e8.roots) == 240 and e8.dim_g == 248


def test_criterion_02_kostant_principal_triple():
    with criterion(2, "principal triple: alpha(h) = 2 everywhere; exact matrix triples in type A"):
        for family, rank in SUITE_TYPES:
            rs = build_root_system(CartanType(family, rank))
            t = kostant_principal(rs)  # raises if the solve check fails
            # alpha_i(h) = sum_j a_ij c_j, row i of the Cartan matrix against the coroot coordinates
            for row in rs.cartan_matrix:
                assert sum(a * c for a, c in zip(row, t.h.coords)) == 2
            coeff_set = {r.coeffs for r in rs.roots}
            for i in range(rank):
                for j in range(rank):
                    if i != j:
                        diff = tuple(
                            (1 if k == i else 0) - (1 if k == j else 0) for k in range(rank)
                        )
                        assert diff not in coeff_set and any(diff)
        for n in range(2, 9):
            assert verify_matrix_triple(principal_triple_sln(n))


def test_criterion_03_jordan_chevalley():
    with criterion(3, "Jordan decomposition: four exact properties on 200 samples per n in 2..5"):
        rng = random.Random(20240311)
        for n in (2, 3, 4, 5):
            for i in range(200):
                x = rand_traceless(rng, n) if i % 2 == 0 else rand_jordan_type(rng, n)
                jp = jordan_chevalley(x)
                xs, xn = jp.semisimple_part, jp.nilpotent_part
                assert is_semisimple(xs)
                assert is_nilpotent(xn)
                assert (xs + xn).entries == x.entries
                assert bracket(xs, xn).is_zero()
                again = jordan_chevalley(xs)
                assert again.semisimple_part.entries == xs.entries
                assert again.nilpotent_part.is_zero()


def test_criterion_04_phi_zero_is_the_nilpotent_cone():
    with criterion(4, "invariants vanish exactly on nilpotents: 100 + 100 samples per n in 2..5"):
        rng = random.Random(20240312)
        for n in (2, 3, 4, 5):
            for _ in range(100):
                x = rand_nilpotent(rng, n)
                assert all(c == 0 for c in invariants_phi(x))
            produced = 0
            while produced < 100:
                x = rand_traceless(rng, n)
                if is_nilpotent(x):
                    continue
                produced += 1
                assert any(c != 0 for c in invariants_phi(x))


def test_criterion_05_dominance_equals_rank_oracle():
    with criterion(5, "dominance equals the rank-condition closure oracle, exhaustive n <= 8"):
        for n in range(1, 9):
            ps = partitions(n)
            for lam, mu in itertools.product(ps, repeat=2):
                assert closure_leq_rank(lam, mu) == dominance_leq(lam, mu)


def test_criterion_06_dimension_oracle():
    with criterion(6, "partition dimensions equal the ad-nullity oracle for n <= 6"):
        for n in range(1, 7):
            for lam in partitions(n):
                oracle = (n * n - 1) - ad_nullity(jordan_matrix(lam))
                assert orbit_dim_partition(lam) == oracle
        for n in range(2, 7):
            assert orbit_dim_partition(regular_orbit(n)) == n * n - n
            assert orbit_dim_partition(minimal_orbit(n)) == 2 * n - 2


def test_criterion_07_poset_structure():
    with criterion(7, "poset: unique extremes, minimal orbit covers only zero, dims drop strictly"):
        for n in range(2, 9):
            h = hasse_diagram(n)
            maxima = set(range(len(h.nodes))) - {lo for lo, _ in h.covers}
            minima = set(range(len(h.nodes))) - {hi for _, hi in h.covers}
            lut = {p.parts: i for i, p in enumerate(h.nodes)}
            assert maxima == {lut[regular_orbit(n).parts]}
            assert minima == {lut[(1,) * n]}
            mi = lut[minimal_orbit(n).parts]
            assert [lo for lo, hi in h.covers if hi == mi] == [lut[(1,) * n]]
            for lo, hi in h.covers:
                assert orbit_dim_partition(h.nodes[lo]) < orbit_dim_partition(h.nodes[hi])


def _e8_subset_sample():
    # the exhaustive E8 run (all 256 subsets, about 9 s) waits for a cached
    # root permutation of w0; until then 16 fixed subsets stand in for it
    rng = random.Random(8)
    sample = {frozenset(), frozenset(range(1, 9))}
    while len(sample) < 16:
        sample.add(frozenset(i for i in range(1, 9) if rng.random() < 0.5))
    return sorted(sample, key=sorted)


def test_criterion_08_dual_parabolic_identities():
    with criterion(8, "dual-parabolic root identities: every subset of rank <= 4, E6 and E7; 16 of E8"):
        for family, rank in RANK_LE_4 + [("E", 6), ("E", 7), ("E", 8)]:
            rs = build_root_system(CartanType(family, rank))
            every = [s for r in range(rank + 1) for s in itertools.combinations(range(1, rank + 1), r)]
            for s in _e8_subset_sample() if rank == 8 else every:
                rep = verify_dual_parabolic(rs, s)
                assert rep.w0_image_is_plus
                assert rep.intersection_is_levi
                assert rep.plus_counts_equal


def _domain_samples(rs, rng, count):
    re_pool = [Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3)]
    im_pool = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1)]
    out = []
    while len(out) < count:
        values = []
        for _ in range(rs.rank):
            if rng.random() < 0.4:
                values.append(GaussianRational(Fraction(0), abs(rng.choice(im_pool))))
            else:
                re = rng.choice(re_pool[1:])
                values.append(GaussianRational(re, rng.choice(im_pool)))
        re_coords = solve_coroot_coords(rs, [v.re for v in values])
        im_coords = solve_coroot_coords(rs, [v.im for v in values])
        h = TorusElement(tuple(GaussianRational(a, b) for a, b in zip(re_coords, im_coords)))
        assert in_fundamental_domain(rs, h)
        out.append(h)
    return out


def test_criterion_09_compactification_dimension_identity():
    with criterion(9, "orbit dim is twice dim G/P and the dual count agrees, 50 h per type"):
        rng = random.Random(20240313)
        for family, rank in RANK_LE_4:
            rs = build_root_system(CartanType(family, rank))
            for h in _domain_samples(rs, rng, 50):
                dim_orbit, dim_gp, dim_gp_star = compactification_dims(rs, h)
                assert dim_orbit == ss_orbit_dim(rs, h)
                assert dim_orbit == 2 * dim_gp
                assert dim_gp == dim_gp_star


def test_criterion_10_exponent_cross_validation():
    with criterion(10, "string peeling equals height transpose for rank <= 8; E8 sums to 248"):
        for family, rank in RANK_LE_8:
            rs = build_root_system(CartanType(family, rank))
            data = exponents(rs)  # raises if peeling and transpose disagree
            assert sum(data.dims) == rs.dim_g
            poly = poincare_polynomial(rs)
            assert sum(poly) == 2**rank
        for n in range(1, 9):
            rs = build_root_system(CartanType("A", n))
            assert exponents(rs).dims == tuple(range(3, 2 * n + 2, 2))
        e8 = build_root_system(CartanType("E", 8))
        assert sum(exponents(e8).dims) == 248


def test_criterion_11_minimal_orbit_cross_module():
    with criterion(11, "minimal orbit: root route equals partition route for 3 <= n <= 8"):
        for n in range(3, 9):
            rep = min_orbit_report(build_root_system(CartanType("A", n - 1)))
            assert rep.dim_Omin == orbit_dim_partition(minimal_orbit(n)) == 2 * n - 2
            assert rep.pi_theta == frozenset(range(2, n - 1))


def test_criterion_12_kks_rank_and_radical():
    with criterion(12, "orbit pairing: rank equals orbit dim, radical equals the centralizer"):
        rng = random.Random(20240314)
        for n in (2, 3, 4):
            for i in range(20):
                maker = (rand_traceless, rand_nilpotent, rand_jordan_type)[i % 3]
                x = maker(rng, n)
                m = kks_matrix(x)
                dim = n * n - 1
                assert linalg.rank(m) == orbit_dim(x)
                ad = ad_matrix(x)
                radical = linalg.nullspace(m)
                assert len(radical) == centralizer_dim(x)
                for v in radical:
                    assert all(c == 0 for c in mat_vec(ad, v))
                # antisymmetry of the Gram matrix
                for a in range(dim):
                    for b in range(a, dim):
                        assert m[a][b] == -m[b][a]


# each golden's argv and the sha256 of its stdout; the 20 goldens and, last,
# the one call that covers poincare --latex
GOLDEN = [
    (["roots", "--type", "G", "--rank", "2", "--json"], "32cf1d7842022bba7e28c666e20515fd3419589b879b141106051f327cc88c36"),
    (["roots", "--type", "E", "--rank", "6"], "4125777083ea56f1cf588af8ff27f236603b00140c9e701e56435b533bf3f817"),
    (["maxroot", "--type", "A", "--rank", "3"], "c963ac87fbdd910225632a8db3cc1c3c03778c48b3425a186874ca832f2578f2"),
    (["maxroot", "--type", "G", "--rank", "2"], "a9b8a228027b191cb953224b1f5133b7734911746b22c95c9205e7f28eeef9a5"),
    (["parabolic", "--type", "A", "--rank", "2", "--subset", "1"], "d5c004a0c270ac7260c48e6fba33f8039f157eb0f7f4be697af6c01d13bdd0df"),
    (["parabolic", "--type", "B", "--rank", "3", "--subset", "1,3"], "696503805e399f1b172c8c7c28b2e930433983e38d2e574c91c153d1ac4b3733"),
    (["w0", "--type", "A", "--rank", "2"], "061db20bc113190ce9e99e587036a192791ecfba20d8803932e153541bce2de5"),
    (["w0", "--type", "D", "--rank", "4"], "07e9a3a36173c1b7bcbfa3bc86d7aaa768d94a4e86e6e41ae1b0e73ede06c65c"),
    (["killing", "--matrix", "{h2}", "--other", "{x2}"], "848764aca4b1f0f83e39cfe42a00b726cbe045450bef87d62b9955bfe52e07fe"),
    (["jordan", "--matrix", "{mixed3}"], "fae84c8489f674a7b6625f802165ee0ddd07359d08fe088a8cd21283fd5b6eac"),
    (["phi", "--matrix", "{h2}"], "e46f7471904e6cd2f0cbb5a33333a8d4660597dd831b61d1c4036f1b8acc980a"),
    (["orbit-dim", "--matrix", "{e12}"], "9e26a1a934073488fb16a261334a1bc4b8b25c0bc2c5049a1ed22143114b141a"),
    (["same-orbit", "--matrix", "{e12}", "--other", "{e13}"], "3d7f881dd21bd666b880428795b1f293f63a9a90499f48b0035ad1625d9983ae"),
    (["triple", "--type", "A", "--rank", "3"], "29d60764586600ac9c8cc399b0be28358b9f7ca6b40ab9308f9ce32c80c14c09"),
    (["jm", "--matrix", "{e12}"], "048d740d492e3aa270f03f92f5bbfef9c1270c9c13c5fe6fe8ece2b57736d862"),
    (["poset", "--n", "4", "--json"], "5b7a105f233a2150db4fd167e62b8291f3356c3e3661e057793b8e1e34cca4f3"),
    (["poset", "--n", "5", "--dot"], "b1a0fa1e8e96f53e0d06faf01a8576e885d0c79b6e06223a6636caa01be95c65"),
    (["closure", "--n", "6", "--lower", "2,2,2", "--upper", "3,1,1,1"], "0d67e2407b7cd6901ecb37527b8647595ef46613106e5b85b9b61b42b0c754c3"),
    (["ssorbit", "--type", "A", "--rank", "2", "--h", "1,1"], "b05747c4221b1070d8e6b7f7bc3746775454fb3de6ac284a1e2b7d757f030335"),
    (["minorbit", "--type", "D", "--rank", "4"], "879bafe1767fd6b8a7708e916df4528a06ebcba451e409f2a6b8ac9057adfc15"),
    (["poincare", "--type", "E", "--rank", "8", "--latex"], "402f6585fa5cca7a7e2a3600fa7f9c01e135aa2550585591e975d7d21e4071f0"),
]


def _run_cli(capsys, argv):
    code = cli_main(argv)
    out = capsys.readouterr().out
    return code, out


def test_criterion_13_cli_determinism_and_round_trip(capsys, tmp_path):
    with criterion(13, "20 golden CLI invocations and poincare --latex match pinned bytes and round-trip"):
        fixtures = {
            "h2": {"n": 2, "entries": [["1", "0"], ["0", "-1"]]},
            "x2": {"n": 2, "entries": [["0", "1"], ["0", "0"]]},
            "mixed3": {"n": 3, "entries": [["1", "1", "0"], ["0", "1", "0"], ["0", "0", "-2"]]},
            "e12": {"n": 3, "entries": [["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]]},
            "e13": {"n": 3, "entries": [["0", "0", "1"], ["0", "0", "0"], ["0", "0", "0"]]},
        }
        paths = {}
        for name, obj in fixtures.items():
            p = tmp_path / f"{name}.json"
            p.write_text(json.dumps(obj))
            paths[name] = str(p)
        assert len(GOLDEN) == 21
        for template, digest in GOLDEN:
            argv = [t.format(**paths) for t in template]
            code1, out1 = _run_cli(capsys, argv)
            code2, out2 = _run_cli(capsys, argv)
            assert code1 == code2 == 0, argv
            assert out1.encode() == out2.encode(), argv
            assert hashlib.sha256(out1.encode()).hexdigest() == digest, argv
        # round trips: emitted matrices are accepted back as inputs
        _, jm_out = _run_cli(capsys, ["jm", "--matrix", paths["e12"]])
        triple = json.loads(jm_out)
        for key in ("x", "h", "y"):
            p = tmp_path / f"rt_{key}.json"
            p.write_text(json.dumps(triple[key]))
            code, _ = _run_cli(capsys, ["orbit-dim", "--matrix", str(p)])
            assert code == 0
        _, jordan_out = _run_cli(capsys, ["jordan", "--matrix", paths["mixed3"]])
        parts = json.loads(jordan_out)
        for key in ("semisimple", "nilpotent"):
            p = tmp_path / f"rt_{key}.json"
            p.write_text(json.dumps(parts[key]))
            code, _ = _run_cli(capsys, ["phi", "--matrix", str(p)])
            assert code == 0
        # a root-system emission re-parses as the same JSON
        _, roots_out = _run_cli(capsys, ["roots", "--type", "G", "--rank", "2"])
        assert json.loads(roots_out) == json.loads(roots_out)
