import numpy as np
import pytest

from slim.container import MAGIC, read_tensors, write_tensors


def test_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {"layer00.L": rng.standard_normal((8, 4)),
               "layer00.R": rng.standard_normal((4, 16))}
    path = tmp_path / "p.slimwt"
    write_tensors(path, tensors)
    back = read_tensors(path)
    assert set(back) == set(tensors)
    for k in tensors:
        assert back[k].shape == tensors[k].shape
        # float32 narrowing bound
        assert np.max(np.abs(back[k] - tensors[k])) < 1e-6


def test_magic_and_layout(tmp_path):
    path = tmp_path / "p.slimwt"
    write_tensors(path, {"t": np.ones((2, 2))})
    raw = path.read_bytes()
    assert raw.startswith(MAGIC)
    assert raw[8:12] == (1).to_bytes(4, "little")


def test_deterministic_bytes(tmp_path):
    t = {"a": np.arange(6.0).reshape(2, 3)}
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    write_tensors(p1, t)
    write_tensors(p2, t)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTSLIM0" + b"\x00" * 16)
    with pytest.raises(ValueError):
        read_tensors(path)


def test_non_2d_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_tensors(tmp_path / "x.bin", {"t": np.ones(3)})


def test_every_truncation_is_value_error(tmp_path):
    full = tmp_path / "full.slimwt"
    write_tensors(full, {"layer00.L": np.ones((2, 3)), "é": np.zeros((1, 1))})
    raw = full.read_bytes()
    path = tmp_path / "cut.slimwt"
    for n in range(len(raw)):
        path.write_bytes(raw[:n])
        with pytest.raises(ValueError):
            read_tensors(path)
    path.write_bytes(raw + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        read_tensors(path)
