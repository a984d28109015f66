import numpy as np
import pytest

from coevo import networks
from coevo.networks import (
    complete_network,
    grid_network,
    load_network,
    random_network,
    random_symmetric_network,
    ring_network,
    save_network,
)


class TestGenerators:
    def test_complete_has_uniform_off_diagonal(self):
        net = complete_network(4)
        assert net.W[0, 0] == 0.0
        off = net.W[~np.eye(4, dtype=bool)]
        np.testing.assert_allclose(off, 1 / 3, atol=1e-15)
        assert net.is_symmetric and net.is_irreducible

    def test_complete_minimum_size(self):
        with pytest.raises(ValueError):
            complete_network(1)

    def test_ring_two_nodes(self):
        net = ring_network(2)
        np.testing.assert_array_equal(net.W, [[0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("n", range(2, 9))
    def test_ring_is_half_weight_on_each_neighbour(self, n):
        # for n=2 both halves land on the one neighbour
        eye = np.eye(n)
        want = 0.5 * np.roll(eye, 1, axis=1) + 0.5 * np.roll(eye, -1, axis=1)
        np.testing.assert_array_equal(ring_network(n).W, want)

    @pytest.mark.parametrize(
        "build, message",
        [
            (ring_network, "ring network needs n >= 2, got 1"),
            (lambda n: random_network(n, 0.5, seed=0), "random network needs n >= 2, got 1"),
            (lambda n: random_symmetric_network(n, 0.5, seed=0), "random symmetric network needs n >= 2, got 1"),
        ],
        ids=["ring", "random", "random-symmetric"],
    )
    def test_one_node_is_refused(self, build, message):
        with pytest.raises(ValueError, match=message):
            build(1)

    def test_ring_splits_weight(self):
        net = ring_network(5)
        assert net.W[0, 1] == 0.5 and net.W[0, 4] == 0.5
        assert net.W[0, 2] == 0.0
        assert net.is_symmetric and net.is_irreducible

    def test_grid_corner_and_centre_degrees(self):
        net = grid_network(3, 3)
        # corner node 0 has 2 neighbours, centre node 4 has 4
        assert net.W[0, 1] == 0.5 and net.W[0, 3] == 0.5
        np.testing.assert_allclose(net.W[4][net.W[4] > 0], 0.25)
        assert net.is_irreducible
        # row-normalisation of unequal degrees breaks symmetry
        assert not net.is_symmetric

    def test_random_network_rows_sum_to_one(self):
        net = random_network(8, 0.4, seed=3)
        np.testing.assert_allclose(net.W.sum(axis=1), 1.0, atol=1e-12)
        assert net.is_irreducible

    def test_random_network_determinism(self):
        a = random_network(6, 0.5, seed=11)
        b = random_network(6, 0.5, seed=11)
        np.testing.assert_array_equal(a.W, b.W)

    def test_random_network_retry_exhaustion(self, monkeypatch):
        monkeypatch.setattr(networks, "MAX_RETRIES", 2)
        with pytest.raises(ValueError, match="irreducible"):
            random_network(12, 0.01, seed=0)

    def test_random_symmetric_properties(self):
        for seed in range(5):
            net = random_symmetric_network(7, 0.5, seed=seed)
            assert net.is_symmetric
            assert net.is_irreducible
            np.testing.assert_allclose(net.W.sum(axis=1), 1.0, atol=1e-12)

    def test_generator_input_validation(self):
        with pytest.raises(ValueError):
            random_network(4, 0.0, seed=0)
        with pytest.raises(ValueError):
            random_symmetric_network(4, 1.5, seed=0)
        with pytest.raises(ValueError):
            grid_network(1, 1)


class TestEdgeListFormat:
    def test_two_node_example(self, tmp_path):
        p = tmp_path / "net.edges"
        p.write_text("1 2 1.0\n2 1 1.0\n")
        net = load_network(str(p))
        np.testing.assert_array_equal(net.W, [[0.0, 1.0], [1.0, 0.0]])
        assert net.is_symmetric and net.is_irreducible

    def test_comments_and_blanks_ignored(self, tmp_path):
        p = tmp_path / "net.edges"
        p.write_text("# a comment\n\n1 2 0.5  # trailing\n1 3 0.5\n2 1 1\n3 1 1\n")
        net = load_network(str(p))
        assert net.n == 3
        assert net.W[0, 1] == 0.5

    def test_field_count_error_cites_line(self, tmp_path):
        p = tmp_path / "net.edges"
        p.write_text("1 2 1.0\n2 1\n")
        with pytest.raises(ValueError, match=r"net\.edges:2"):
            load_network(str(p))

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_weight_names_its_line(self, tmp_path, weight):
        p = tmp_path / "net.edges"
        p.write_text(f"1 2 1.0\n2 1 {weight}\n")
        with pytest.raises(ValueError, match=rf"net\.edges:2: non-finite weight {weight}$"):
            load_network(str(p))

    def test_negative_weight_rejected(self, tmp_path):
        p = tmp_path / "net.edges"
        p.write_text("1 2 -1.0\n2 1 1.0\n")
        with pytest.raises(ValueError, match="negative"):
            load_network(str(p))

    def test_zero_based_ids_rejected(self, tmp_path):
        p = tmp_path / "net.edges"
        p.write_text("0 1 1.0\n1 0 1.0\n")
        with pytest.raises(ValueError, match="1-based"):
            load_network(str(p))

    def test_normalise_on_load(self, tmp_path):
        p = tmp_path / "net.edges"
        p.write_text("1 2 2.0\n1 3 2.0\n2 1 7.0\n3 1 1.0\n")
        net = load_network(str(p), normalise=True)
        np.testing.assert_allclose(net.W[0], [0.0, 0.5, 0.5])
        np.testing.assert_allclose(net.W[1], [1.0, 0.0, 0.0])


class TestDenseCsvFormat:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        W = rng.uniform(0.05, 1.0, (5, 5))
        np.fill_diagonal(W, 0.0)
        W = W / W.sum(axis=1, keepdims=True)
        from coevo.model import Network

        net = Network(W)
        p = tmp_path / "net.csv"
        save_network(net, str(p), format="dense-csv")
        loaded = load_network(str(p), format="dense-csv")
        np.testing.assert_array_equal(loaded.W, net.W)

    def test_edge_list_round_trip_bit_exact(self, tmp_path):
        net = ring_network(6)
        p = tmp_path / "net.edges"
        save_network(net, str(p), format="edge-list")
        loaded = load_network(str(p), format="edge-list")
        np.testing.assert_array_equal(loaded.W, net.W)

    def test_overflowing_row_sum_rejected_on_normalise(self, tmp_path):
        p = tmp_path / "net.csv"
        p.write_text("0.5,0.5\n1e308,1e308\n")
        with pytest.raises(ValueError, match="^row 2 sums to inf and cannot be normalised$"):
            load_network(str(p), format="dense-csv", normalise=True)

    def test_bad_row_sum_rejected_without_normalise(self, tmp_path):
        p = tmp_path / "net.csv"
        p.write_text("0.5,0.48\n0.5,0.5\n")
        with pytest.raises(ValueError, match="row 1"):
            load_network(str(p), format="dense-csv")

    def test_ragged_rejected(self, tmp_path):
        p = tmp_path / "net.csv"
        p.write_text("0.5,0.5\n1.0\n")
        with pytest.raises(ValueError, match="ragged|non-square"):
            load_network(str(p), format="dense-csv")

    @pytest.mark.parametrize(
        "text, where",
        [
            ("0.5,0.5\n1.0\n", r"net\.csv:2: row has 1 entries, expected 2"),
            ("# weights\n0,1\n\n1,0\n0.5,0.5\n", r"net\.csv:2: row has 2 entries, expected 3"),
            ("0,1\n1,0,0\n", r"net\.csv:2: row has 3 entries, expected 2"),
            ("0,1\n1,nan\n", r"net\.csv:2: non-finite weight nan"),
            ("# weights\n0,inf\n1,0\n", r"net\.csv:2: non-finite weight inf"),
        ],
    )
    def test_ragged_row_names_its_line(self, tmp_path, text, where):
        p = tmp_path / "net.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match=where):
            load_network(str(p), format="dense-csv")

    @pytest.mark.parametrize(
        "format, text, message",
        [
            ("edge-list", "# a comment only\n\n", "no edges found"),
            ("dense-csv", "# weights\n\n", "empty matrix"),
        ],
    )
    def test_file_without_weights_rejected(self, tmp_path, format, text, message):
        p = tmp_path / "net.txt"
        p.write_text(text)
        with pytest.raises(ValueError, match=r"net\.txt: " + message + "$"):
            load_network(str(p), format=format)

    def test_unknown_format_rejected(self, tmp_path):
        p = tmp_path / "net.csv"
        p.write_text("1.0\n")
        with pytest.raises(ValueError, match="unknown network format"):
            load_network(str(p), format="graphml")
