import itertools
import json

import numpy as np
import pytest

from divekit.instances import (
    GeneratorConfig,
    InstanceError,
    ParseError,
    SENSE_EQ,
    SENSE_GE,
    SENSE_LE,
    UnsupportedFeature,
    generate,
    make_instance,
    read_instance,
    to_standard_form,
    write_instance,
)
from divekit.oracles import brute_force_milp, check_feasible_reference


class TestStandardForm:
    def test_le_row_gains_slack(self):
        inst = make_instance("t", c=[0.0, 0.0], rows=[(0, 0, 1.0), (0, 1, 1.0)],
                             senses=[SENSE_LE], b=[3.0], lb=[0, 0], ub=[5, 5], integer=[])
        lp = to_standard_form(inst)
        assert lp.ncols == 3 and lp.slack_start == 2
        assert lp.lb[2] == 0.0 and np.isinf(lp.ub[2])
        assert lp.dense()[0, 2] == 1.0  # x1 + x2 + s = 3
        # row i's logical is column slack_start + i
        np.testing.assert_array_equal(lp.dense()[:, lp.slack_start:], np.eye(1))

    def test_ge_row_gains_negative_surplus(self):
        inst = make_instance("t", c=[0.0], rows=[(0, 0, 2.0)], senses=[SENSE_GE],
                             b=[1.0], lb=[0], ub=[5], integer=[])
        lp = to_standard_form(inst)
        assert lp.dense()[0, 1] == -1.0
        assert lp.lb[1] == 0.0 and np.isinf(lp.ub[1])

    def test_all_equality_instance_unchanged(self):
        inst = make_instance("t", c=[1.0, 2.0], rows=[(0, 0, 1.0), (1, 1, 1.0)],
                             senses=[SENSE_EQ, SENSE_EQ], b=[1.0, 2.0],
                             lb=[0, 0], ub=[3, 3], integer=[])
        lp = to_standard_form(inst)
        # the instance's columns as they are, then one +1 logical per row
        # fixed at zero, so the LP is the instance's
        assert lp.ncols == inst.n + inst.m and lp.slack_start == inst.n
        np.testing.assert_array_equal(lp.dense(), np.hstack([inst.A.toarray(), np.eye(2)]))
        assert np.all(lp.lb[inst.n:] == 0.0) and np.all(lp.ub[inst.n:] == 0.0)

    def test_feasibility_preserved_on_grid(self):
        """Mixed-sense instance: a point is feasible iff slack values exist
        making the equality form feasible, checked on a value grid."""
        inst = make_instance(
            "t", c=[0.0, 0.0, 0.0],
            rows=[(0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0), (1, 2, -1.0), (2, 0, 1.0), (2, 2, 1.0)],
            senses=[SENSE_LE, SENSE_GE, SENSE_EQ], b=[2.0, 0.0, 2.0],
            lb=[0, 0, 0], ub=[2, 2, 2], integer=[],
        )
        lp = to_standard_form(inst)
        assert lp.ncols - lp.slack_start == 3  # one logical per row; EQ's is fixed at 0
        grid = np.linspace(0, 2, 5)
        for x in itertools.product(grid, repeat=3):
            x = np.array(x)
            full = lp.full_point(x)
            lp_feasible = (
                np.all(np.abs(lp.dense() @ full - lp.b) <= 1e-9)
                and np.all(full >= lp.lb - 1e-9)
                and np.all(full <= np.minimum(lp.ub, 1e30) + 1e-9)
            )
            assert lp_feasible == check_feasible_reference(inst, x)

    def test_full_point_satisfies_rows_exactly(self):
        inst = generate(GeneratorConfig("set-cover", seed=3, rows=8, cols=12, density=0.3))
        lp = to_standard_form(inst)
        x = np.ones(inst.n)
        full = lp.full_point(x)
        assert np.max(np.abs(lp.dense() @ full - lp.b)) < 1e-9


class TestGenerators:
    def test_determinism_byte_identical(self, tmp_path):
        for fam in ("set-cover", "comb-auction", "facility-location", "indep-set"):
            cfg = GeneratorConfig(fam, seed=11, rows=10, cols=20, density=0.2,
                                  items=8, bids=12, customers=4, facilities=3,
                                  nodes=12, affinity=2)
            a, b = tmp_path / "a.json", tmp_path / "b.json"
            write_instance(generate(cfg), a)
            write_instance(generate(cfg), b)
            assert a.read_bytes() == b.read_bytes()

    def test_set_cover_coverage_and_all_ones_feasible(self):
        inst = generate(GeneratorConfig("set-cover", seed=7, rows=10, cols=20, density=0.2))
        counts = np.diff(inst.A.tocsr().indptr)
        assert np.all(counts >= 2)
        assert check_feasible_reference(inst, np.ones(inst.n))
        assert np.all(inst.divable)

    def test_set_cover_columns_nonempty(self):
        inst = generate(GeneratorConfig("set-cover", seed=5, rows=10, cols=40, density=0.06))
        col_counts = np.diff(inst.A.tocsc().indptr)
        assert np.all(col_counts >= 1)

    def test_indep_set_edgeless_optimum(self):
        inst = generate(GeneratorConfig("indep-set", seed=1, nodes=5, affinity=0))
        assert inst.m == 0
        # all nodes selectable: minimization of -sum picks everything
        assert check_feasible_reference(inst, np.ones(5))
        assert float(inst.c @ np.ones(5)) == -5.0

    def test_indep_set_rows_are_cliques(self):
        inst = generate(GeneratorConfig("indep-set", seed=2, nodes=15, affinity=3))
        assert np.all(inst.senses == SENSE_LE)
        assert np.all(inst.b == 1.0)
        assert np.all(inst.c == -1.0)

    def test_comb_auction_zero_feasible_and_negated(self):
        inst = generate(GeneratorConfig("comb-auction", seed=3, items=8, bids=15))
        assert np.all(inst.c < 0)  # maximization stored negated
        assert check_feasible_reference(inst, np.zeros(inst.n))

    def test_facility_capacity_covers_demand(self):
        inst = generate(GeneratorConfig("facility-location", seed=4, customers=5, facilities=3))
        assert inst.divable.sum() == 3  # only the open decisions dive
        # opening everything and serving greedily must be feasible
        from divekit.oracles import _linprog_completion
        z, x = _linprog_completion(inst, inst.divable_index, np.ones(3))
        assert x is not None and check_feasible_reference(inst, x)

    def test_generated_instances_admit_integer_point(self):
        for seed in range(4):
            inst = generate(GeneratorConfig("set-cover", seed=seed, rows=6, cols=10, density=0.3))
            z, x, _ = brute_force_milp(inst)
            assert x is not None

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            GeneratorConfig("set-cover", density=0.0).validate()
        with pytest.raises(ValueError):
            GeneratorConfig("unknown-family").validate()
        with pytest.raises(ValueError):
            GeneratorConfig("indep-set", nodes=5, affinity=5).validate()


class TestValidation:
    def test_bound_crossing_rejected(self):
        with pytest.raises(InstanceError):
            make_instance("bad", c=[1.0], rows=[], senses=[], b=[],
                          lb=[2.0], ub=[1.0], integer=[])

    @pytest.mark.parametrize("sense", ["XX", "le", 2.7, True, np.True_, 300, -1, None])
    def test_unknown_sense_rejected(self, sense):
        """A sense is "LE", "GE", "EQ" or a non-bool integer 0, 1 or 2."""
        with pytest.raises(InstanceError, match="unknown row sense"):
            make_instance("bad", c=[1.0], rows=[(0, 0, 1.0)], senses=[sense], b=[1.0],
                          lb=[0.0], ub=[1.0], integer=[])

    @pytest.mark.parametrize("kw", [
        {"c": [np.nan]}, {"b": [np.inf]}, {"rows": [(0, 0, np.inf)]},
        {"lb": [np.nan]}, {"ub": [np.nan]},
    ], ids=["c", "b", "coefficient", "nan-lb", "nan-ub"])
    def test_non_finite_data_rejected(self, kw):
        args = dict(c=[1.0], rows=[(0, 0, 1.0)], senses=[SENSE_LE], b=[1.0],
                    lb=[0.0], ub=[1.0], integer=[])
        with pytest.raises(InstanceError):
            make_instance("bad", **{**args, **kw})

    def test_divable_must_be_integer(self):
        with pytest.raises(InstanceError):
            make_instance("bad", c=[1.0], rows=[], senses=[], b=[],
                          lb=[0.0], ub=[1.0], integer=[], divable=[0])

    def test_duplicate_triplets_rejected_not_summed(self, tmp_path):
        rows = [(0, 0, 1.0), (0, 1, 2.0), (0, 0, 3.0)]
        with pytest.raises(InstanceError, match="duplicate"):
            make_instance("dup", c=[1.0, 1.0], rows=rows, senses=[SENSE_LE], b=[4.0],
                          lb=[0.0, 0.0], ub=[1.0, 1.0], integer=[])
        inst = make_instance("dup", c=[1.0, 1.0], rows=rows[:2], senses=[SENSE_LE], b=[4.0],
                             lb=[0.0, 0.0], ub=[1.0, 1.0], integer=[])
        p = tmp_path / "dup.json"
        write_instance(inst, p)
        doc = json.loads(p.read_text())
        doc["rows"].append([0, 0, 3.0])
        p.write_text(json.dumps(doc))
        with pytest.raises(InstanceError, match="duplicate"):
            read_instance(p)

    @pytest.mark.parametrize("field, index", [
        ("integer", [-1]), ("integer", [2]), ("divable", [-1]), ("divable", [2]),
        ("integer", [0.7]), ("integer", [True, False]),
    ])
    def test_column_index_outside_the_columns_rejected(self, field, index):
        kw = {"integer": [0, 1], field: index}
        with pytest.raises(InstanceError, match=field):
            make_instance("bad", c=[1.0, 1.0], rows=[], senses=[], b=[],
                          lb=[0.0, 0.0], ub=[1.0, 1.0], **kw)

    @pytest.mark.parametrize("rows, field", [
        ([(0.5, 1, 2.0)], "triplet row"),
        ([(1.7, 2.9, 2.0)], "triplet row"),
        ([(0, 1.5, 2.0)], "triplet column"),
        ([(True, 0, 1.0)], "triplet row"),
        ([(2, 0, 1.0)], "triplet row"),
        ([(-1, 0, 1.0)], "triplet row"),
        ([(0, 3, 1.0)], "triplet column"),
        ([(0, -1, 1.0)], "triplet column"),
    ], ids=["half-row", "fractional-both", "fractional-column", "bool-row", "row-past-end",
            "negative-row", "column-past-end", "negative-column"])
    def test_triplet_index_outside_the_matrix_rejected(self, rows, field):
        """Triplet rows and columns are checked by the rule that ``integer``
        and ``divable`` follow: integers inside the matrix, nothing else."""
        with pytest.raises(InstanceError, match=field):
            make_instance("bad", c=[1.0, 1.0, 1.0], rows=rows, senses=[SENSE_LE, SENSE_LE],
                          b=[1.0, 1.0], lb=[0.0] * 3, ub=[1.0] * 3, integer=[])

    @pytest.mark.parametrize("rows, message", [
        ([[1.0, 0.0], [0.0, 1.0]], "triplets"),  # a dense 2x2 matrix
        (np.eye(3)[:2], "triplet row"),  # a dense 2x3 matrix reads as float triplets
    ], ids=["dense-2x2", "dense-2x3"])
    def test_matrix_form_rejected(self, rows, message):
        with pytest.raises(InstanceError, match=message):
            make_instance("dense", c=[1.0] * len(rows[0]), rows=rows,
                          senses=[SENSE_LE, SENSE_LE], b=[1.0, 1.0], lb=[0.0] * len(rows[0]),
                          ub=[1.0] * len(rows[0]), integer=[])

    def test_fractional_triplet_in_a_json_file_rejected(self, tmp_path):
        inst = make_instance("frac", c=[1.0, 1.0], rows=[(0, 0, 1.0)], senses=[SENSE_LE],
                             b=[1.0], lb=[0.0, 0.0], ub=[1.0, 1.0], integer=[1])
        p = tmp_path / "frac.json"
        write_instance(inst, p)
        doc = json.loads(p.read_text())
        doc["rows"] = [[0.5, 1, 2.0]]
        p.write_text(json.dumps(doc))
        with pytest.raises(InstanceError, match="triplet row"):
            read_instance(p)

    @pytest.mark.parametrize("header", [{"n": 99, "m": 42}, {"n": 3}, {"m": 2}],
                             ids=["both", "n", "m"])
    def test_json_header_must_match_the_vectors(self, tmp_path, header):
        inst = generate(GeneratorConfig("set-cover", seed=1, rows=5, cols=8, density=0.4))
        p = tmp_path / "hdr.json"
        write_instance(inst, p)
        doc = json.loads(p.read_text())
        doc.update(header)
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="header says"):
            read_instance(p)

    def test_json_fields_must_be_present(self, tmp_path):
        inst = generate(GeneratorConfig("set-cover", seed=1, rows=5, cols=8, density=0.4))
        p = tmp_path / "gap.json"
        write_instance(inst, p)
        doc = json.loads(p.read_text())
        del doc["lb"], doc["divable"]
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="gap.json: missing field 'lb', 'divable'"):
            read_instance(p)

    def test_negative_index_in_a_json_file_rejected(self, tmp_path):
        inst = make_instance("neg", c=[1.0, 1.0], rows=[(0, 0, 1.0)], senses=[SENSE_LE],
                             b=[1.0], lb=[0.0, 0.0], ub=[1.0, 1.0], integer=[1])
        p = tmp_path / "neg.json"
        write_instance(inst, p)
        doc = json.loads(p.read_text())
        doc["int"] = doc["divable"] = [-1]
        p.write_text(json.dumps(doc))
        with pytest.raises(InstanceError, match="integer"):
            read_instance(p)

    @pytest.mark.parametrize("field", ["lb", "ub", "senses"])
    def test_vector_of_the_wrong_length_rejected(self, field):
        kw = {"lb": [0.0, 0.0], "ub": [1.0, 1.0], "senses": [SENSE_LE]}
        kw[field] = kw[field] + kw[field]
        with pytest.raises(InstanceError, match=field):
            make_instance("bad", c=[1.0, 1.0], rows=[(0, 0, 1.0)], b=[1.0], integer=[], **kw)


class TestJsonIo:
    def test_round_trip_equal(self, tmp_path):
        inst = generate(GeneratorConfig("facility-location", seed=9, customers=4, facilities=3))
        p = tmp_path / "inst.json"
        write_instance(inst, p)
        back = read_instance(p)
        np.testing.assert_array_equal(inst.c, back.c)
        np.testing.assert_array_equal(inst.A.toarray(), back.A.toarray())
        np.testing.assert_array_equal(inst.senses, back.senses)
        np.testing.assert_array_equal(inst.b, back.b)
        np.testing.assert_array_equal(inst.lb, back.lb)
        np.testing.assert_array_equal(inst.ub, back.ub)
        np.testing.assert_array_equal(inst.integer, back.integer)
        np.testing.assert_array_equal(inst.divable, back.divable)

    def test_infinite_bounds_round_trip(self, tmp_path):
        inst = make_instance("t", c=[1.0], rows=[(0, 0, 1.0)], senses=[SENSE_LE],
                             b=[4.0], lb=[-np.inf], ub=[np.inf], integer=[])
        p = tmp_path / "t.json"
        write_instance(inst, p)
        back = read_instance(p)
        assert back.lb[0] == -np.inf and back.ub[0] == np.inf

    def test_mps_export_unsupported(self, tmp_path):
        inst = generate(GeneratorConfig("set-cover", seed=1, rows=4, cols=6, density=0.4))
        with pytest.raises(UnsupportedFeature):
            write_instance(inst, tmp_path / "x.mps")


MPS_SAMPLE = """NAME          SAMPLE
ROWS
 N  COST
 L  LIM1
 G  LIM2
 E  EQN
COLUMNS
    X1        COST         1.0        LIM1         1.0
    X1        LIM2         1.0
    MARKER                 'MARKER'                 'INTORG'
    X2        COST         2.0        LIM1         1.0
    X2        EQN          1.0
    MARKER                 'MARKER'                 'INTEND'
    X3        COST        -1.0        EQN          1.0
RHS
    RHS       LIM1         4.0        LIM2         1.0
    RHS       EQN          2.0
BOUNDS
 UP BND       X1           4.0
 BV BND       X2
 LO BND       X3           0.5
ENDATA
"""


class TestMpsReader:
    def test_subset_parses(self, tmp_path):
        p = tmp_path / "s.mps"
        p.write_text(MPS_SAMPLE)
        inst = read_instance(p)
        assert inst.n == 3 and inst.m == 3
        assert inst.var_names == ["X1", "X2", "X3"]
        np.testing.assert_array_equal(inst.senses, [SENSE_LE, SENSE_GE, SENSE_EQ])
        np.testing.assert_array_equal(inst.b, [4.0, 1.0, 2.0])
        # BV: integer with bounds [0, 1]
        assert inst.integer[1] and inst.lb[1] == 0.0 and inst.ub[1] == 1.0
        assert inst.ub[0] == 4.0 and inst.lb[2] == 0.5
        assert not inst.integer[0] and not inst.integer[2]

    def test_ranges_section_unsupported(self, tmp_path):
        p = tmp_path / "r.mps"
        p.write_text(MPS_SAMPLE.replace("BOUNDS", "RANGES\n    R  LIM1  1.0\nBOUNDS"))
        with pytest.raises(UnsupportedFeature):
            read_instance(p)

    def test_parse_error_carries_line_number(self, tmp_path):
        p = tmp_path / "bad.mps"
        p.write_text("NAME X\nROWS\n Z BADROW\nENDATA\n")
        with pytest.raises(ParseError) as exc:
            read_instance(p)
        assert exc.value.line == 3

    def test_huge_upper_bound_is_infinite_everywhere(self, tmp_path):
        from divekit.graphnet import VAR_FEATURES, extract_graph
        from divekit.simplex import OPTIMAL, solve_lp

        p = tmp_path / "big.mps"
        p.write_text(MPS_SAMPLE.replace(" UP BND       X1           4.0",
                                        " UP BND       X1           1e30"))
        inst = read_instance(p)
        assert inst.ub[0] == np.inf
        root = solve_lp(to_standard_form(inst))
        assert root.status == OPTIMAL
        graph = extract_graph(inst, root)
        assert graph.var_feats[0, VAR_FEATURES.index("ub_finite")] == 0.0

    def test_unsupported_bound_type(self, tmp_path):
        p = tmp_path / "fr.mps"
        p.write_text(MPS_SAMPLE.replace(" UP BND       X1           4.0",
                                        " FR BND       X1"))
        with pytest.raises(UnsupportedFeature):
            read_instance(p)


def test_only_instances_names_inf_bound():
    """Once an instance is built, a bound is infinite only if it is +-inf;
    ``INF_BOUND`` is the file-format threshold that makes it so, and no
    other module of the package tests a bound against it."""
    import re
    from pathlib import Path

    import divekit

    pkg = Path(divekit.__file__).parent
    naming = sorted(p.name for p in pkg.glob("*.py")
                    if re.search(r"\bINF_BOUND\b", p.read_text()))
    assert naming == ["instances.py"]
