import csv
import json

import pytest

from cubenet import Topology, cli
from cubenet.cli import main


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

    def test_multiclass_zero_budget(self, tmp_path, capsys):
        spec = tmp_path / "rec.json"
        spec.write_text(json.dumps({"kind": "recursive", "mode": "symmetric", "dims": [2, 2]}))
        topo = tmp_path / "rec.topology.json"
        assert run_cli(["topo", "build", "--spec", str(spec), "--out", str(topo)]) == 0
        capsys.readouterr()
        code = run_cli(["analyze", "partition", "--topology", str(topo), "--budget", "0"])
        assert code == 2
        assert "budget is 0" in capsys.readouterr().err

    def test_negative_enum_cap(self, cube_topology, capsys):
        code = run_cli(["analyze", "partition", "--topology", cube_topology,
                        "--enum-cap", "-1"])
        assert code == 2
        assert "enum_cap must be >= 0" in capsys.readouterr().err

    def test_numeric_failure(self, tmp_path, monkeypatch, cube_topology, capsys):
        from cubenet import cli
        from cubenet.errors import NumericError

        def boom(*a, **kw):
            raise NumericError("synthetic instability", residual=1.0)

        monkeypatch.setattr(cli, "partition_tolerance", boom)
        code = run_cli(["analyze", "partition", "--topology", cube_topology])
        assert code == 3
        assert "numeric failure" in capsys.readouterr().err
