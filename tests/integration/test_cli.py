"""Tests for the command-line interface (run in-process via cli.main)."""

import numpy as np
import pytest

from repro.cli import build_parser, main


@pytest.fixture
def small_edge_list(tmp_path):
    """A tiny benchmark graph on disk plus its ground-truth labels."""
    graph_path = tmp_path / "graph.txt"
    labels_path = tmp_path / "labels.txt"
    rc = main(
        [
            "generate",
            "-o", str(graph_path),
            "--kind", "communities",
            "--n", "60",
            "--groups", "3",
            "--alpha", "0.6",
            "--inter-edges", "8",
            "--labels", str(labels_path),
            "--seed", "0",
        ]
    )
    assert rc == 0
    return graph_path, labels_path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_embed_defaults(self):
        args = build_parser().parse_args(["embed", "g.txt", "-o", "v.npz"])
        assert args.dim == 50 and args.window == 5 and args.mode == "uniform"


class TestGenerate:
    def test_writes_graph_and_labels(self, small_edge_list):
        graph_path, labels_path = small_edge_list
        assert graph_path.exists()
        labels = labels_path.read_text().strip().split("\n")
        assert len(labels) == 60

    def test_flights_kind(self, tmp_path):
        out = tmp_path / "flights.txt"
        rc = main(
            ["generate", "-o", str(out), "--kind", "flights", "--n", "60", "--seed", "1"]
        )
        assert rc == 0
        assert out.exists()


class TestEmbed:
    def test_embed_writes_npz(self, small_edge_list, tmp_path, capsys):
        graph_path, _ = small_edge_list
        out = tmp_path / "vectors.npz"
        rc = main(
            [
                "embed", str(graph_path), "-o", str(out),
                "--dim", "8", "--walks", "4", "--length", "15",
                "--epochs", "2", "--seed", "0",
            ]
        )
        assert rc == 0
        with np.load(out) as data:
            assert data["vectors"].shape == (60, 8)
        assert "embedded 60 vertices" in capsys.readouterr().out

    def test_checkpoint_dir_and_resume(self, small_edge_list, tmp_path, capsys):
        graph_path, _ = small_edge_list
        ckpt = tmp_path / "ckpt"
        base_args = [
            "embed", str(graph_path),
            "--dim", "8", "--walks", "4", "--length", "15",
            "--epochs", "2", "--seed", "0",
            "--checkpoint-dir", str(ckpt),
        ]
        out1 = tmp_path / "v1.npz"
        assert main(base_args + ["-o", str(out1)]) == 0
        assert (ckpt / "trainer.ckpt.npz").exists()
        assert list((ckpt / "walks").glob("walks-*.ckpt.npz"))
        # Resuming over the finished checkpoints reproduces the vectors.
        out2 = tmp_path / "v2.npz"
        assert main(base_args + ["-o", str(out2), "--resume"]) == 0
        with np.load(out1) as a, np.load(out2) as b:
            np.testing.assert_array_equal(a["vectors"], b["vectors"])

    def test_on_error_skip_loads_corrupt_edge_list(self, tmp_path, capsys):
        graph_path = tmp_path / "corrupt.txt"
        lines = ["0 1", "garbage line", "1 2", "2 3", "3 0", "0 2", "1 3"]
        graph_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "v.npz"
        args = [
            "embed", str(graph_path), "-o", str(out),
            "--dim", "4", "--walks", "2", "--length", "8", "--epochs", "1",
        ]
        assert main(args + ["--on-error", "skip"]) == 0
        with np.load(out) as data:
            assert data["vectors"].shape == (4, 4)
        # collect mode reports the dropped line as a structured warning
        # on stderr (stdout stays reserved for the command result)
        assert main(args + ["--on-error", "collect"]) == 0
        captured = capsys.readouterr()
        assert "io.malformed_lines" in captured.err
        assert "dropped=1" in captured.err
        assert "malformed" not in captured.out
        # strict mode refuses
        with pytest.raises(ValueError):
            main(args + ["--on-error", "strict"])

    def test_node2vec_mode(self, small_edge_list, tmp_path):
        graph_path, _ = small_edge_list
        out = tmp_path / "v.npz"
        rc = main(
            [
                "embed", str(graph_path), "-o", str(out),
                "--dim", "4", "--walks", "2", "--length", "10",
                "--epochs", "1", "--mode", "node2vec", "--p", "0.5", "--q", "2.0",
            ]
        )
        assert rc == 0

    @pytest.mark.parametrize("command", ["embed", "detect"])
    def test_node2vec_on_a_store_is_refused_with_the_engines_reason(
        self, small_edge_list, tmp_path, capsys, command
    ):
        from repro.walks.engine import NODE2VEC_ON_STORE

        graph_path, _ = small_edge_list
        extra = ["-k", "3"] if command == "detect" else []
        rc = main(
            [
                command, str(graph_path), "-o", str(tmp_path / "out"), *extra,
                "--graph-store", str(tmp_path / "store"), "--mode", "node2vec",
            ]
        )
        assert rc == 2
        assert f"error: {NODE2VEC_ON_STORE}" in capsys.readouterr().err


class TestSupervisionFlags:
    @pytest.mark.parametrize(
        "flags, expected",
        [
            (
                ["--worker-deadline", "7", "--max-respawns", "1"],
                {"worker_deadline": 7.0, "max_respawns": 1},
            ),
            (["--max-respawns", "1"], {"max_respawns": 1}),
            (["--worker-deadline", "7"], {"worker_deadline": 7.0}),
        ],
        ids=["both", "respawns_only", "deadline_only"],
    )
    def test_walk_and_hogwild_maps_get_one_policy(
        self, small_edge_list, tmp_path, monkeypatch, flags, expected
    ):
        from repro.parallel import hogwild, pool
        from repro.parallel.hogwild import hogwild_supported
        from repro.resilience.supervisor import SupervisorConfig

        if not hogwild_supported():
            pytest.skip("platform has no shared memory")
        seen = {"walks": [], "hogwild": []}
        real_map = pool.parallel_map

        def spy(name):
            def parallel_map(fn, items, **kwargs):
                seen[name].append(kwargs.get("supervisor"))
                return real_map(fn, items, **kwargs)

            return parallel_map

        # The walk engine imports parallel_map at call time, the Hogwild
        # module at import time: patch each where it is looked up.
        monkeypatch.setattr(pool, "parallel_map", spy("walks"))
        monkeypatch.setattr(hogwild, "parallel_map", spy("hogwild"))
        graph_path, _ = small_edge_list
        rc = main(
            [
                "embed", str(graph_path), "-o", str(tmp_path / "v.npz"),
                "--dim", "4", "--walks", "2", "--length", "8",
                "--epochs", "1", "--seed", "0",
                "--walk-workers", "2", "--train-workers", "2",
                *flags,
            ]
        )
        assert rc == 0
        policy = SupervisorConfig(**expected)
        assert seen["walks"] and seen["hogwild"]
        assert all(s == policy for s in seen["walks"] + seen["hogwild"])


class TestDetect:
    @pytest.mark.parametrize("method", ["v2v", "cnm", "louvain"])
    def test_methods_write_tsv(self, small_edge_list, tmp_path, method):
        graph_path, _ = small_edge_list
        out = tmp_path / f"{method}.tsv"
        argv = [
            "detect", str(graph_path), "-k", "3", "-o", str(out),
            "--method", method, "--dim", "8", "--walks", "4",
            "--length", "15", "--epochs", "2", "--restarts", "5",
        ]
        assert main(argv) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "vertex\tcommunity"
        assert len(lines) == 61

    def test_v2v_detect_quality(self, small_edge_list, tmp_path):
        graph_path, labels_path = small_edge_list
        out = tmp_path / "comm.tsv"
        main(
            [
                "detect", str(graph_path), "-k", "3", "-o", str(out),
                "--dim", "12", "--walks", "6", "--length", "20",
                "--epochs", "4", "--restarts", "10", "--seed", "0",
            ]
        )
        pred = np.asarray(
            [int(l.split("\t")[1]) for l in out.read_text().strip().split("\n")[1:]]
        )
        truth = np.asarray(
            [int(x) for x in labels_path.read_text().strip().split("\n")]
        )
        from repro.ml.metrics import adjusted_rand_index

        assert adjusted_rand_index(truth, pred) > 0.8


class TestPredict:
    def test_cross_validation_output(self, small_edge_list, tmp_path, capsys):
        graph_path, labels_path = small_edge_list
        vec_path = tmp_path / "v.npz"
        main(
            [
                "embed", str(graph_path), "-o", str(vec_path),
                "--dim", "12", "--walks", "6", "--length", "20",
                "--epochs", "4", "--seed", "0",
            ]
        )
        capsys.readouterr()
        rc = main(
            [
                "predict", str(vec_path), str(labels_path),
                "-k", "3", "--folds", "5", "--seed", "0",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "accuracy" in out
        acc = float(out.strip().rsplit(" ", 1)[1])
        assert acc > 0.6

    def test_label_count_mismatch(self, small_edge_list, tmp_path, capsys):
        graph_path, _ = small_edge_list
        vec_path = tmp_path / "v.npz"
        main(
            [
                "embed", str(graph_path), "-o", str(vec_path),
                "--dim", "4", "--walks", "2", "--length", "8", "--epochs", "1",
            ]
        )
        bad_labels = tmp_path / "bad.txt"
        bad_labels.write_text("a\nb\n")
        rc = main(["predict", str(vec_path), str(bad_labels)])
        assert rc == 2


class TestLinkPred:
    def test_reports_auc(self, small_edge_list, capsys):
        graph_path, _ = small_edge_list
        rc = main(
            [
                "linkpred", str(graph_path),
                "--dim", "12", "--walks", "6", "--length", "20",
                "--epochs", "4", "--seed", "0",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "ROC AUC" in out
        auc = float(out.split("ROC AUC")[1].split()[0])
        assert 0.5 < auc <= 1.0

    def test_operator_choice(self, small_edge_list, capsys):
        graph_path, _ = small_edge_list
        rc = main(
            [
                "linkpred", str(graph_path), "--operator", "l1",
                "--dim", "8", "--walks", "4", "--length", "15",
                "--epochs", "2", "--seed", "0",
            ]
        )
        assert rc == 0
        assert "l1" in capsys.readouterr().out


class TestLayout:
    def test_writes_csv(self, small_edge_list, tmp_path):
        graph_path, _ = small_edge_list
        out = tmp_path / "layout.csv"
        rc = main(
            ["layout", str(graph_path), "-o", str(out), "--iterations", "30"]
        )
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "vertex,x,y"
        assert len(lines) == 61
