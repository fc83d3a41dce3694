import numpy as np
import pytest

from lutnet.expand import detect_dont_cares, shannon_decompose, vertex_index


def _bits(v, k):
    return [(v >> j) & 1 for j in range(k)]


def _brute_dont_cares(table, k):
    """Kept inputs by definition: input j matters iff flipping it changes the
    output at some vertex."""
    return [j for j in range(k)
            if any(table[v] != table[v ^ (1 << j)] for v in range(1 << k))]


def _assert_reduction(table, k):
    kept, reduced = detect_dont_cares(table, k)
    assert kept == _brute_dont_cares(table, k)
    assert reduced.shape == (1 << len(kept),)
    for v in range(1 << k):
        bits = _bits(v, k)
        sub = sum(bits[j] << i for i, j in enumerate(kept))
        assert reduced[sub] == table[v], (v, kept)


def _planted(rng, k, depends_on):
    """Random 0/1 table over k inputs that reads only the inputs depends_on."""
    f = rng.integers(0, 2, 1 << len(depends_on), dtype=np.uint8)
    table = np.empty(1 << k, dtype=np.uint8)
    for v in range(1 << k):
        bits = _bits(v, k)
        table[v] = f[sum(bits[j] << i for i, j in enumerate(depends_on))]
    return table


class TestDetectDontCares:
    def test_xor_of_two_of_four(self):
        table = np.array([_bits(v, 4)[0] ^ _bits(v, 4)[1] for v in range(16)], dtype=np.uint8)
        kept, reduced = detect_dont_cares(table, 4)
        assert kept == [0, 1]
        assert reduced.tolist() == [0, 1, 1, 0]

    def test_and_of_inputs_0_and_2(self):
        table = np.array([_bits(v, 4)[0] & _bits(v, 4)[2] for v in range(16)], dtype=np.uint8)
        kept, reduced = detect_dont_cares(table, 4)
        assert kept == [0, 2]
        assert reduced.tolist() == [0, 0, 0, 1]

    def test_two_dont_cares_of_three(self):
        table = np.array([_bits(v, 3)[1] for v in range(8)], dtype=np.uint8)
        kept, reduced = detect_dont_cares(table, 3)
        assert kept == [1]
        assert reduced.tolist() == [0, 1]

    @pytest.mark.parametrize("value", [0, 1])
    def test_constant(self, value):
        kept, reduced = detect_dont_cares(np.full(4, value, dtype=np.uint8), 2)
        assert kept == []
        assert reduced.tolist() == [value]

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_matches_brute_force(self, k):
        rng = np.random.default_rng(60 + k)
        for _ in range(40):
            depends_on = sorted(rng.choice(k, size=rng.integers(0, k + 1), replace=False).tolist())
            _assert_reduction(_planted(rng, k, depends_on), k)

    def test_pm1_tables(self):
        rng = np.random.default_rng(67)
        table = _planted(rng, 5, [1, 3, 4]).astype(np.int8) * 2 - 1
        _assert_reduction(table, 5)


def eval_cells(cells, assignment: dict) -> int:
    """Evaluate a shannon_decompose cell list on a {-1,+1} input assignment."""
    values = {}
    for j, (tbl, ids) in enumerate(cells):
        coords = [values[i[1]] if isinstance(i, tuple) and i[0] == "cell" else assignment[i]
                  for i in ids]
        idx = int(vertex_index(np.array(coords, dtype=np.float64)))
        values[j] = int(tbl[idx])
    return values[len(cells) - 1]


@pytest.mark.parametrize("k", [7, 8])
def test_shannon_decompose_matches_table(k):
    rng = np.random.default_rng(70 + k)
    table = rng.choice(np.array([-1, 1], dtype=np.int8), size=1 << k)
    ids = [f"x{j}" for j in range(k)]
    cells = shannon_decompose(table, ids)
    assert all(len(ins) <= 6 for _tbl, ins in cells)
    for v in range(1 << k):
        assignment = {ids[j]: 2 * b - 1 for j, b in enumerate(_bits(v, k))}
        assert eval_cells(cells, assignment) == table[v]
