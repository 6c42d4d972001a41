import struct

import numpy as np
import pytest

from slim.container import MAGIC, read_tensors, write_tensors


def test_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {"layer00.L": rng.standard_normal((8, 4)),
               "layer00.R": rng.standard_normal((4, 16))}
    path = tmp_path / "p.slimwt"
    write_tensors(path, tensors.items(), len(tensors))
    back = read_tensors(path)
    assert set(back) == set(tensors)
    for k in tensors:
        assert back[k].shape == tensors[k].shape
        # float32 narrowing bound
        assert np.max(np.abs(back[k] - tensors[k])) < 1e-6


def test_magic_and_layout(tmp_path):
    path = tmp_path / "p.slimwt"
    write_tensors(path, [("t", np.ones((2, 2)))], 1)
    raw = path.read_bytes()
    assert raw.startswith(MAGIC)
    assert raw[8:12] == (1).to_bytes(4, "little")


def test_deterministic_bytes(tmp_path):
    t = {"a": np.arange(6.0).reshape(2, 3)}
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    write_tensors(p1, t.items(), 1)
    write_tensors(p2, t.items(), 1)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTSLIM0" + b"\x00" * 16)
    with pytest.raises(ValueError):
        read_tensors(path)


def test_non_2d_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_tensors(tmp_path / "x.bin", [("t", np.ones(3))], 1)


def test_every_truncation_is_value_error(tmp_path):
    full = tmp_path / "full.slimwt"
    write_tensors(full, [("layer00.L", np.ones((2, 3))), ("é", np.zeros((1, 1)))], 2)
    raw = full.read_bytes()
    path = tmp_path / "cut.slimwt"
    for n in range(len(raw)):
        path.write_bytes(raw[:n])
        with pytest.raises(ValueError):
            read_tensors(path)
    path.write_bytes(raw + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        read_tensors(path)


def test_streamed_pairs_write_the_bytes_of_a_dict(tmp_path):
    # pairs made one at a time, as train makes them, give the bytes of the
    # same tensors listed from a dict, and the documented layout
    rng = np.random.default_rng(1)
    tensors = {f"layer{li:02d}.expert000.{n}": rng.standard_normal(shape)
               for li in range(3) for n, shape in (("L", (8, 4)), ("R", (4, 16)))}

    def made():
        for name, arr in tensors.items():
            yield name, arr.copy()

    streamed, listed = tmp_path / "streamed.slimwt", tmp_path / "listed.slimwt"
    write_tensors(streamed, made(), len(tensors))
    write_tensors(listed, tensors.items(), len(tensors))
    layout = MAGIC + struct.pack("<I", len(tensors))
    for name, arr in tensors.items():
        nb = name.encode()
        layout += struct.pack("<H", len(nb)) + nb + struct.pack("<II", *arr.shape)
        layout += arr.astype("<f4").tobytes()
    assert streamed.read_bytes() == listed.read_bytes() == layout
    assert sorted(p.name for p in tmp_path.iterdir()) == ["listed.slimwt", "streamed.slimwt"]


def _failing(case):
    good = [("a", np.ones((2, 2))), ("b", np.zeros((1, 3)))]
    if case == "too-few":
        return good, 3
    if case == "too-many":
        return good, 1
    if case == "not-2d-partway":
        return [good[0], ("c", np.ones(4)), good[1]], 3

    def raising():  # the producer fails after a tensor was written
        yield good[0]
        raise RuntimeError("fit failed")

    return raising(), 2


@pytest.mark.parametrize("case", ["too-few", "too-many", "not-2d-partway", "producer-raises"])
def test_failed_write_leaves_no_file(tmp_path, case):
    pairs, count = _failing(case)
    path = tmp_path / "p.slimwt"
    error = RuntimeError if case == "producer-raises" else ValueError
    with pytest.raises(error):
        write_tensors(path, pairs, count)
    assert not any(tmp_path.iterdir())
