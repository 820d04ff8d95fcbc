import csv
import dataclasses
import io
import json
import math
import time

import numpy as np
import pytest

from cubenet import (
    RecursionSpec,
    Topology,
    build_complete_hypercube,
    build_recursive,
    build_ring_lattice,
    build_star,
    cli,
    partition_tolerance,
)
from cubenet.cli import main
from cubenet.errors import SpecError
from custom_graph import custom_topology


def run_cli(argv):
    return main(argv)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@pytest.fixture
def cube_spec(tmp_path):
    path = tmp_path / "cube.json"
    path.write_text(json.dumps({"kind": "hypercube", "dim": 3}))
    return str(path)


@pytest.fixture
def cube_topology(tmp_path, cube_spec):
    out = tmp_path / "cube.topology.json"
    assert run_cli(["topo", "build", "--spec", cube_spec, "--out", str(out)]) == 0
    return str(out)


class TestTopoBuild:
    def test_json_spec(self, tmp_path, cube_spec, capsys):
        out = tmp_path / "t.json"
        assert run_cli(["topo", "build", "--spec", cube_spec, "--out", str(out)]) == 0
        topo = Topology.from_json(out.read_text())
        assert (topo.n_nodes, topo.n_links) == (8, 12)
        assert "N=8 L=12" in capsys.readouterr().out

    def test_key_value_spec(self, tmp_path):
        spec = tmp_path / "rec.spec"
        spec.write_text("mode=semi\ndims=3,2\nclasses=5000,3000\n")
        out = tmp_path / "rec.json"
        assert run_cli(["topo", "build", "--spec", str(spec), "--out", str(out)]) == 0
        topo = Topology.from_json(out.read_text())
        assert (topo.n_nodes, topo.n_links) == (32, 80)
        assert {c.distance_km for c in topo.classes.values()} == {5000.0, 3000.0}

    @pytest.mark.parametrize("text, nodes, links", [
        ('{"kind": "star", "n": 5}', 5, 4),
        ("# a 3-cube\nkind=hypercube\n\n  # the dimension\ndim=3\n", 8, 12),
    ], ids=["json-star", "key-value-comments"])
    def test_spec_kinds(self, tmp_path, text, nodes, links):
        spec = tmp_path / "t.spec"
        spec.write_text(text)
        out = tmp_path / "t.json"
        assert run_cli(["topo", "build", "--spec", str(spec), "--out", str(out)]) == 0
        topo = Topology.from_json(out.read_text())
        assert (topo.n_nodes, topo.n_links) == (nodes, links)

    def test_manifest_sidecar(self, tmp_path, cube_spec):
        out = tmp_path / "t.json"
        run_cli(["topo", "build", "--spec", cube_spec, "--out", str(out)])
        manifest = json.loads((tmp_path / "t.json.manifest.json").read_text())
        assert manifest["command"] == "topo build"
        assert manifest["outputs"] == [str(out)]
        assert "wall_clock_s" in manifest

    def test_byte_identical_rerun(self, tmp_path, cube_spec):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(["topo", "build", "--spec", cube_spec, "--out", str(a)])
        run_cli(["topo", "build", "--spec", cube_spec, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_stats(self, cube_topology, capsys):
        assert run_cli(["topo", "stats", "--topology", cube_topology]) == 0
        assert "N=8 L=12 degree=3..3" in capsys.readouterr().out


# Table 3's rows in order, with the baseline degree of each block.
TABLE3_GRAPHS = [(n, degree, entry)
                 for n, degree, entries in ((64, 6, cli.TABLE3_N64), (4096, 12, cli.TABLE3_N4096))
                 for entry in entries]


class TestTables:
    def test_table1(self, tmp_path):
        out = tmp_path / "t1.csv"
        assert run_cli(["tables", "1", "--out", str(out)]) == 0
        rows = read_csv(str(out))
        assert rows[0] == ["recursions", "dim", "nodes", "links"]
        data = {(r[0], r[1]): (int(r[2]), int(r[3])) for r in rows[1:]}
        assert data[("0", "4")] == (16, 32)
        assert data[("1", "3")] == (64, 192)
        assert data[("2", "2")] == (64, 192)
        assert data[("2", "5")] == (32768, 245760)

    def test_table2(self, tmp_path):
        out = tmp_path / "t2.csv"
        assert run_cli(["tables", "2", "--out", str(out)]) == 0
        rows = read_csv(str(out))
        data = {r[1]: (int(r[2]), int(r[3])) for r in rows[1:]}
        assert data["4"] == (16, 32)
        assert data["4-3"] == (128, 448)
        assert data["4-3-2"] == (512, 2304)

    def test_table3_census(self, tmp_path):
        out = tmp_path / "t3.csv"
        assert run_cli(["tables", "3", "--out", str(out)]) == 0
        rows = read_csv(str(out))
        assert rows[0][:5] == ["nodes", "method", "links_5000km", "links_3000km", "links_420km"]
        by_label = {(r[0], r[1]): tuple(map(int, r[2:5])) for r in rows[1:]}
        assert by_label[("64", "0 recursion (6)")] == (192, 0, 0)
        assert by_label[("64", "2 completely symmetric recursions (2-2-2)")] == (64, 64, 64)
        assert by_label[("64", "1 semi-symmetric recursion (4-2)")] == (128, 64, 0)
        assert by_label[("64", "regular rooted tree")] == (63, 0, 0)
        assert by_label[("64", "ring lattice")] == (192, 0, 0)
        assert by_label[("4096", "2 completely symmetric recursions (4-4-4)")] == (
            2048 * 4,
            2048 * 4,
            2048 * 4,
        )

    def test_table3_builds_only_analysed_graphs(self, monkeypatch):
        built = []
        for name in ("build_rooted_tree", "build_ring_lattice", "build_recursive"):
            def counted(*a, _build=getattr(cli, name), **kw):
                topo = _build(*a, **kw)
                built.append(topo.n_nodes)
                return topo
            monkeypatch.setattr(cli, name, counted)
        cli.table3_rows()
        assert built == []
        cli.table3_rows(with_reliability=True, budget=20)
        assert built == [64, 64, 64]

    @pytest.mark.parametrize("index", range(len(TABLE3_GRAPHS)),
                             ids=[f"{n}-{label}" for n, _, (_, label, _) in TABLE3_GRAPHS])
    def test_table3_census_matches_built_graph(self, index):
        n, degree, (kind, label, spec) = TABLE3_GRAPHS[index]
        row = cli.table3_rows()[index]
        topo = cli._table3_graph(kind, n, degree, spec)
        by_km = {topo.classes[c].distance_km: k for c, k in topo.class_census().items()}
        assert row == [n, label, *(by_km.get(d, 0) for d in (5000.0, 3000.0, 420.0))]

    def test_rerun_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["tables", "3", "--out", str(a)])
        run_cli(["tables", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_tree_row_is_exact(self, tmp_path):
        """Table 3's tree row comes from the forest DP: the same cells for
        every seed, and a p cell that parses as a float."""
        rows = []
        for seed in (1, 2):
            out = tmp_path / f"t3_{seed}.csv"
            assert run_cli(["tables", "3", "--reliability", "--budget", "20",
                            "--seed", str(seed), "--out", str(out)]) == 0
            rows.append(next(r for r in read_csv(str(out)) if r[:2] == ["64", "regular rooted tree"]))
        assert rows[0] == rows[1]
        p, neglog, t, method = rows[0][5:]
        assert abs(float(p) - 0.996808113966) < 1e-12
        assert abs(float(neglog) - 2.49595) < 1e-5
        assert (t, method) == ("24.0", "exact-tree")

    def test_manifest_records_params(self, tmp_path):
        out = tmp_path / "t3.csv"
        assert run_cli(["tables", "3", "--reliability", "--budget", "50", "--seed", "2",
                        "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "t3.csv.manifest.json").read_text())
        assert manifest["seed"] == 2
        assert manifest["params"] == {"reliability": True, "budget": 50}


class TestAnalyze:
    def test_partition_csv(self, tmp_path, cube_topology):
        out = tmp_path / "analysis.csv"
        code = run_cli(
            ["analyze", "partition", "--topology", cube_topology,
             "--budget", "2000", "--enum-cap", "1000", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(str(out))
        assert rows[0][:4] == ["topology_id", "N", "L", "k"]
        summary = rows[-1]
        assert summary[6] == "summary"
        assert 0.0 <= float(summary[7]) <= 1.0

    def test_sampled_rows_are_plain_floats(self, tmp_path, cube_topology):
        out = tmp_path / "sampled.csv"
        assert run_cli(["analyze", "partition", "--topology", cube_topology,
                        "--budget", "200", "--enum-cap", "0", "--out", str(out)]) == 0
        rows = read_csv(str(out))
        assert any(row[10] == "sampled" for row in rows[1:-1])
        for row in rows[1:]:
            for value in row[7:10]:
                float(value)  # a numpy scalar would print as "np.float64(...)"

    def test_tree_writes_one_exact_summary(self, tmp_path):
        """A forest has no per-state rows: only the summary, from the DP."""
        spec, topo = tmp_path / "tree.spec.json", tmp_path / "tree.json"
        spec.write_text(json.dumps({"kind": "tree", "n": 64, "degree": 6}))
        assert run_cli(["topo", "build", "--spec", str(spec), "--out", str(topo)]) == 0
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run_cli(["analyze", "partition", "--topology", str(topo),
                            "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        header, summary = read_csv(str(a))
        assert len(header) == len(summary)
        assert summary[6] == "summary" and summary[10] == "exact-tree"
        assert (summary[8], summary[9]) == ("24.0", "0.0")
        assert abs(float(summary[7]) - 0.996808113966) < 1e-12

    @pytest.mark.parametrize("graph, budget", [
        (build_ring_lattice(64, 2), 200),  # exact, sampled and skipped rows, t set
        (build_complete_hypercube(6), 200),  # exact and skipped rows: t is empty
        (build_recursive(RecursionSpec.symmetric(2, 2)), 100),  # two classes: lambda is nan
    ], ids=["cycle64", "Q6", "2-2"])
    def test_rows_are_what_csv_writer_writes(self, tmp_path, graph, budget):
        """A `kind` holding a comma, a quote and a newline is quoted as
        csv.writer quotes it, and every state row and the summary are the
        bytes csv.writer writes for the report's cells."""
        doc = dataclasses.replace(graph, kind='ring, "odd"\nkind')
        path, out = tmp_path / "t.json", tmp_path / "a.csv"
        path.write_text(doc.to_json())
        assert run_cli(["analyze", "partition", "--topology", str(path), "--budget",
                        str(budget), "--enum-cap", "2100", "--seed", "4", "--out", str(out)]) == 0
        report = partition_tolerance(doc, budget=budget, seed=4, enum_cap=2100)
        (cls, *more) = doc.classes.values()
        lam, mu = (math.nan, math.nan) if more else (cls.lam, cls.mu)
        head = [doc.kind, doc.n_nodes, doc.n_links, report.k, repr(lam), repr(mu)]
        rows = [head + [e.i, *(repr(float(x)) for x in (e.pi_i, e.p_wrong, e.stderr)), e.method]
                for e in report.per_state]
        t = "" if report.t is None else repr(report.t)
        rows.append(head + ["summary", repr(report.p), t, repr(report.stderr), report.method])
        want = io.StringIO()
        csv.writer(want, lineterminator="\n").writerows([read_csv(out)[0], *rows])
        assert out.read_bytes() == want.getvalue().encode()
        assert out.read_text().count('\n"ring, ""odd""\nkind",') == len(rows)

    def test_repair_prints_summary(self, tmp_path, cube_topology, capsys):
        out = tmp_path / "repair.csv"
        code = run_cli(
            ["analyze", "repair", "--topology", cube_topology,
             "--budget", "3000", "--out", str(out)]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "avg_min_repair_h=" in err

    def test_seed_reproducible(self, tmp_path, cube_topology):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["analyze", "partition", "--topology", cube_topology,
                "--budget", "1500", "--enum-cap", "0", "--seed", "5"]
        run_cli(args + ["--out", str(a)])
        run_cli(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_records_params(self, tmp_path, cube_topology):
        out = tmp_path / "a.csv"
        run_cli(["analyze", "partition", "--topology", cube_topology,
                 "--budget", "1000", "--seed", "3", "--out", str(out)])
        manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        assert manifest["seed"] == 3
        assert manifest["params"]["budget"] == 1000
        assert "workers" not in manifest["params"]


class TestGossipCli:
    def test_run(self, tmp_path, cube_topology):
        out = tmp_path / "g.csv"
        code = run_cli(["gossip", "run", "--topology", cube_topology,
                        "--cycles", "20", "--fanout", "2", "--out", str(out)])
        assert code == 0
        rows = read_csv(str(out))
        assert rows[0] == ["cycle", "forwarded"]
        assert rows[-1][0] == "total"
        assert int(rows[-1][1]) == 2 * 2 * 8 * 20

    def test_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(["gossip", "sweep", "--sizes", "8,16", "--cycles", "10",
                        "--out", str(out)])
        assert code == 0
        rows = read_csv(str(out))
        assert [r[0] for r in rows[1:]] == ["hypercube-8", "hypercube-16"]

    def test_run_requires_topology(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["gossip", "run", "--cycles", "5"])
        assert exc.value.code == 2


class TestConsensusCli:
    def test_run(self, tmp_path, cube_topology):
        out = tmp_path / "c.csv"
        code = run_cli(["consensus", "run", "--topology", cube_topology,
                        "--rounds", "50", "--bandwidth", "1e7", "--out", str(out)])
        assert code == 0
        rows = read_csv(str(out))
        assert rows[-1][0] == "summary"
        assert float(rows[-1][4]) > 0

    def test_sweep(self, tmp_path):
        out = tmp_path / "cs.csv"
        code = run_cli(["consensus", "sweep", "--sizes", "4,16", "--rounds", "10",
                        "--bandwidth", "1e8", "--out", str(out)])
        assert code == 0
        rows = read_csv(str(out))
        kinds = [r[0] for r in rows[1:]]
        assert "std:hypercube" in kinds and "std:star" in kinds

    def test_run_requires_topology(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["consensus", "run", "--rounds", "5"])
        assert exc.value.code == 2
        assert "consensus run requires --topology" in capsys.readouterr().err


def _class_edit(doc, **fields):
    """`doc` with its first link class's `fields` replaced."""
    return dict(doc, classes=[dict(doc["classes"][0], **fields)])


class TestExitCodes:
    def test_missing_file(self, capsys):
        assert run_cli(["topo", "stats", "--topology", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize("argv", [["tables", "1"], ["gossip", "sweep", "--sizes", "4",
                                                     "--cycles", "2"]])
    def test_stdout_output_has_no_manifest(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert run_cli(argv + ["--out", "-"]) == 0
        assert capsys.readouterr().out.splitlines()[0] in ("recursions,dim,nodes,links",
                                                          "label,N,mean_total")
        assert list(tmp_path.iterdir()) == []

    def test_topo_build_to_stdout_is_usage_error(self, tmp_path, monkeypatch, cube_spec):
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        with pytest.raises(SystemExit) as exc:
            run_cli(["topo", "build", "--spec", cube_spec, "--out", "-"])
        assert exc.value.code == 2
        assert sorted(tmp_path.iterdir()) == before

    def test_bad_spec(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"kind": "moebius", "n": 8}))
        assert run_cli(["topo", "build", "--spec", str(spec)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("kind=ring\nn 8\n", "bad spec line 'n 8'; expected key=value"),
        ("n=8\n", "spec needs a 'kind'"),
        ("kind=torus\nn=8\n", "unknown topology kind 'torus'"),
        ("mode=symmetric\ndims=2,3\n", "symmetric mode needs one repeated dimension"),
        ("mode=asymmetric\ndims=2,2\n", "unsupported recursion mode 'asymmetric'"),
        ("mode=sym\ndims=2,2\n", "unsupported recursion mode 'sym'"),
        ("kind=ring\nn=8\ndegree=2.5\n", "spec degree must be an integer, got '2.5'"),
        ('{"kind": "ring", "n": 8, "degree": 2.5}', "spec degree must be an integer, got 2.5"),
        ('{"kind": "tree", "n": 7.9}', "spec n must be an integer, got 7.9"),
        ('{"kind": "recursive", "dims": [2.7, 2]}', "spec dims must be an integer, got 2.7"),
        ('{"kind": "hypercube", "dim": true}', "spec dim must be an integer, got True"),
        ('{"kind": "recursive", "dims": [2, 2], "classes": [null, 3000]}',
         "spec classes must be a number, got None"),
        ('{"kind": "recursive", "dims": [2, 2], "classes": [{}, 3000]}',
         "spec classes must be a number, got {}"),
        ('{"kind": "recursive", "dims": [2, 2], "classes": [[1], 3000]}',
         "spec classes must be a number, got [1]"),
        ('{"kind": "ring", "degree": 2}', "ring spec has no key 'n'"),
    ], ids=["no-equals", "no-kind", "unknown-kind", "unequal-dims", "asymmetric", "sym",
            "float-string", "float-degree", "float-n", "float-dims", "bool-dim", "null-class",
            "object-class", "list-class", "ring-no-n"])
    def test_bad_key_value_spec(self, tmp_path, capsys, text, message):
        spec = tmp_path / "bad.spec"
        spec.write_text(text)
        assert run_cli(["topo", "build", "--spec", str(spec),
                        "--out", str(tmp_path / "bad.topology.json")]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "doc",
        [{"kind": "recursive", "mode": "semi", "dims": [-1, 2]},
         {"kind": "recursive", "mode": "symmetric", "dims": [-2, -2]},
         {"kind": "hypercube", "dim": -1}],
        ids=["semi", "symmetric", "hypercube"],
    )
    def test_negative_dimension(self, tmp_path, capsys, doc):
        spec = tmp_path / "neg.json"
        spec.write_text(json.dumps(doc))
        assert run_cli(["topo", "build", "--spec", str(spec),
                        "--out", str(tmp_path / "neg.topology.json")]) == 2
        err = capsys.readouterr().err
        assert "non-negative" in err and "Traceback" not in err

    def test_bad_sweep_size(self, capsys):
        assert run_cli(["gossip", "sweep", "--sizes", "12", "--cycles", "5"]) == 2

    @pytest.mark.parametrize("command", ["gossip", "consensus"])
    def test_empty_sweep(self, tmp_path, capsys, command):
        """A sweep of no sizes is a usage error and writes no CSV."""
        out = tmp_path / "sweep.csv"
        assert run_cli([command, "sweep", "--sizes", "", "--out", str(out)]) == 2
        assert "error: --sizes needs at least one size" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("option, field", [("--bandwidth", "link_bandwidth"),
                                               ("--latency", "link_latency"),
                                               ("--tx-rate", "tx_rate")])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_consensus_non_finite_rate(self, cube_topology, capsys, option, field, value):
        capsys.readouterr()
        code = run_cli(["consensus", "run", "--topology", cube_topology, "--rounds", "5",
                        option, value])
        assert code == 2
        assert f"{field} must be finite" in capsys.readouterr().err

    def test_multiclass_zero_budget(self, tmp_path, capsys):
        spec = tmp_path / "rec.json"
        spec.write_text(json.dumps({"kind": "recursive", "mode": "symmetric", "dims": [2, 2]}))
        topo = tmp_path / "rec.topology.json"
        assert run_cli(["topo", "build", "--spec", str(spec), "--out", str(topo)]) == 0
        capsys.readouterr()
        code = run_cli(["analyze", "partition", "--topology", str(topo), "--budget", "0"])
        assert code == 2
        assert "budget is 0" in capsys.readouterr().err

    def test_sampled_states_zero_budget(self, tmp_path, capsys):
        topo = tmp_path / "ring64.json"
        topo.write_text(build_ring_lattice(64, 6).to_json())
        code = run_cli(["analyze", "partition", "--topology", str(topo), "--budget", "0"])
        assert code == 2
        assert "need sampling but the budget is 0" in capsys.readouterr().err

    def test_graph_without_links(self, tmp_path, capsys):
        topo = tmp_path / "bare.json"
        topo.write_text(custom_topology(3, []).to_json())
        assert run_cli(["analyze", "partition", "--topology", str(topo)]) == 3
        assert "numeric failure" in capsys.readouterr().err
        out = tmp_path / "k1.csv"
        assert run_cli(["analyze", "partition", "--topology", str(topo), "--k", "1",
                        "--out", str(out)]) == 0
        _, summary = read_csv(str(out))
        assert (summary[6], summary[7], summary[8], summary[10]) == \
            ("summary", "1.0", "", "exact-tree")

    @pytest.mark.parametrize("field, value", [("u", None), ("v", "3"), ("u", 1.5), ("label", 0.5)],
                             ids=["u-null", "v-string", "u-float", "label-float"])
    def test_malformed_document_number(self, tmp_path, capsys, field, value):
        """A link or label column that is a JSON number, null or a string
        that is not base64 is a usage error, not a traceback or a silent
        conversion."""
        doc = build_ring_lattice(6, 2).to_dict()
        if field == "label":
            doc["labels"][0] = value
        else:
            doc["links"][field] = value
        topo = tmp_path / "bad.json"
        topo.write_text(json.dumps(doc))
        assert run_cli(["topo", "stats", "--topology", str(topo)]) == 2
        captured = capsys.readouterr()
        assert "base64" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: dict(doc, links=[]), "malformed topology document: "),
        (lambda doc: dict(doc, labels=5), "malformed topology document: "),
        (lambda doc: _class_edit(doc, mtbf_h=None), "mtbf_h must be a finite number, got None"),
        (lambda doc: [], "malformed topology document: "),
        (lambda doc: dict(doc, kind=5), "kind must be a string, got 5"),
        (lambda doc: _class_edit(doc, distance_km="x"),
         "distance_km must be a finite number, got 'x'"),
        (lambda doc: _class_edit(doc, mttr_h=True), "mttr_h must be a finite number, got True"),
        (lambda doc: _class_edit(doc, mtbf_h=float("inf")), "mtbf_h must be a finite number, got inf"),
        (lambda doc: dict(doc, classes=[[0]]), "malformed topology document: "),
        (lambda doc: {key: doc[key] for key in doc if key != "N"},
         "malformed topology document: no key 'N'"),
        (lambda doc: dict(doc, classes=[{key: doc["classes"][0][key] for key in doc["classes"][0]
                                         if key != "mttr_h"}]),
         "malformed topology document: no key 'mttr_h'"),
        (lambda doc: dict(doc, links={"v": doc["links"]["v"], "class_id": doc["links"]["class_id"]}),
         "malformed topology document: no key 'u'"),
    ], ids=["links-list", "labels-int", "mtbf-null", "top-level-list", "kind-int",
            "distance-string", "mttr-bool", "mtbf-infinite", "class-list", "no-N", "no-mttr",
            "no-links-u"])
    def test_malformed_document_structure(self, tmp_path, capsys, edit, message):
        """A value of the wrong JSON type is a usage error, not a traceback
        (TypeError, AttributeError) or a silent success."""
        topo = tmp_path / "bad.json"
        topo.write_text(json.dumps(edit(build_ring_lattice(6, 2).to_dict())))
        assert run_cli(["topo", "stats", "--topology", str(topo)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("n, value", [(6, 6.0), (1, True)], ids=["N-float", "N-bool"])
    def test_node_count_not_an_int(self, tmp_path, capsys, n, value):
        """N equal to the node count but not a Python int (6.0 == 6 and
        True == 1) is a usage error from `topo stats` and `analyze`."""
        doc = (build_ring_lattice(6, 2) if n == 6 else custom_topology(1, [])).to_dict()
        topo = tmp_path / "n.json"
        topo.write_text(json.dumps(doc))
        assert run_cli(["topo", "stats", "--topology", str(topo)]) == 0
        capsys.readouterr()
        topo.write_text(json.dumps(dict(doc, N=value)))
        for argv in (["topo", "stats"], ["analyze", "partition"]):
            assert run_cli([*argv, "--topology", str(topo)]) == 2
            captured = capsys.readouterr()
            assert f"N={value!r} but the document lists {n} nodes" in captured.err
            assert "Traceback" not in captured.err and captured.out == ""

    def test_version_1_document(self, tmp_path, capsys):
        """A version-1 document (one object per node and per link) is
        refused by its version: SpecError naming it, exit 2 and no
        traceback from `topo stats` and `analyze`."""
        doc = {"version": 1, "kind": "custom", "N": 2, "meta": {},
               "classes": [{"class_id": 0, "distance_km": 5000.0, "mtbf_h": 2190.0, "mttr_h": 24.0}],
               "nodes": [{"flat": 0, "levels": [0]}, {"flat": 1, "levels": [1]}],
               "links": [{"u": 0, "v": 1, "class_id": 0, "level": 1}]}
        with pytest.raises(SpecError, match="unsupported topology document version 1"):
            Topology.from_dict(doc)
        topo = tmp_path / "v1.json"
        topo.write_text(json.dumps(doc))
        for argv in (["topo", "stats"], ["analyze", "partition"]):
            assert run_cli([*argv, "--topology", str(topo)]) == 2
            captured = capsys.readouterr()
            assert "unsupported topology document version 1" in captured.err
            assert "Traceback" not in captured.err and captured.out == ""

    def test_version_2_document(self, tmp_path, capsys):
        """A version-2 document (JSON integer lists) is refused by its
        version, with a hint to rebuild it: exit 2 and no traceback from
        `topo stats` and `analyze`."""
        doc = {"version": 2, "kind": "custom", "N": 2, "meta": {},
               "classes": [{"class_id": 0, "distance_km": 5000.0, "mtbf_h": 2190.0, "mttr_h": 24.0}],
               "labels": [[0], [1]], "links": {"u": [0], "v": [1], "class_id": [0], "level": [1]}}
        topo = tmp_path / "v2.json"
        topo.write_text(json.dumps(doc))
        for argv in (["topo", "stats"], ["analyze", "partition"]):
            assert run_cli([*argv, "--topology", str(topo)]) == 2
            captured = capsys.readouterr()
            assert "unsupported topology document version 2; rebuild the file with `topo build`" \
                in captured.err
            assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("argv", [["topo", "stats"], ["analyze", "partition"]],
                             ids=["topo-stats", "analyze-partition"])
    def test_directory_as_topology(self, tmp_path, capsys, argv):
        """Any OSError opening the file is a usage error, not only a missing file."""
        assert run_cli([*argv, "--topology", str(tmp_path)]) == 2
        assert "Is a directory" in capsys.readouterr().err

    def test_flat_size_guard(self, tmp_path, capsys):
        spec = tmp_path / "ring.json"
        spec.write_text(json.dumps({"kind": "ring", "n": 2**20 + 1, "degree": 2}))
        assert run_cli(["topo", "build", "--spec", str(spec), "--out",
                        str(tmp_path / "ring.topology.json")]) == 2
        assert "1048577 nodes" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", [
        ({"kind": "recursive", "dims": [20000]}, "dim=20000 exceeds the guard of 20"),
        ({"kind": "recursive", "dims": [10**12]}, "dim=1000000000000 exceeds the guard of 20"),
        ({"kind": "recursive", "dims": [0] * 1100, "classes": [5000] * 1100},
         "1100 levels exceed the guard of 20"),
    ], ids=["dim-20000", "dim-10e12", "1100-levels"])
    def test_oversized_recursive_spec(self, tmp_path, capsys, doc, message):
        """Refused by the spec before the build counts anything: no 2**dim
        integer is formed and no recursion runs per level."""
        spec = tmp_path / "big.json"
        spec.write_text(json.dumps(doc))
        start = time.perf_counter()
        code = run_cli(["topo", "build", "--spec", str(spec), "--out",
                        str(tmp_path / "big.topology.json")])
        assert code == 2 and time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [["gossip", "run", "--cycles"],
                                      ["consensus", "run", "--rounds"],
                                      ["analyze", "partition", "--budget"]],
                             ids=["cycles", "rounds", "budget"])
    def test_run_length_guard(self, tmp_path, capsys, argv):
        """Refused from the count, before any per-cycle, per-round or
        per-sample array is allocated (which would need 7.3 TiB)."""
        topo = tmp_path / "ring64.json"
        topo.write_text(build_ring_lattice(64, 6).to_json())
        code = run_cli([*argv[:2], "--topology", str(topo), argv[2], "1000000000000"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{argv[2][2:]}=1000000000000 exceeds the guard" in err
        assert "Traceback" not in err

    def test_negative_budget(self, tmp_path, capsys):
        """Refused although a star is a forest, whose exact DP samples
        nothing."""
        topo = tmp_path / "star5.json"
        topo.write_text(build_star(5).to_json())
        code = run_cli(["analyze", "partition", "--topology", str(topo), "--budget", "-5"])
        assert code == 2
        err = capsys.readouterr().err
        assert "budget must be >= 0, got -5" in err and "Traceback" not in err

    def test_negative_enum_cap(self, cube_topology, capsys):
        code = run_cli(["analyze", "partition", "--topology", cube_topology,
                        "--enum-cap", "-1"])
        assert code == 2
        assert "enum_cap must be >= 0" in capsys.readouterr().err

    def test_numeric_failure(self, tmp_path, monkeypatch, cube_topology, capsys):
        from cubenet import cli
        from cubenet.errors import NumericError

        def boom(*a, **kw):
            raise NumericError("synthetic instability")

        monkeypatch.setattr(cli, "partition_tolerance", boom)
        code = run_cli(["analyze", "partition", "--topology", cube_topology])
        assert code == 3
        assert "numeric failure" in capsys.readouterr().err


def test_fmt_writes_numpy_floats_plainly():
    assert cli._fmt(np.float64(0.5)) == "0.5"
    assert cli._fmt(0.25) == "0.25" and cli._fmt(3) == "3"
