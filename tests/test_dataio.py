"""Container formats, patch extraction, splits and the scene generator."""

import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hdcaps import dataio
from hdcaps.errors import FormatError

HOUSTON_CLASS_SIZES = [1251, 1254, 697, 1244, 1242, 325, 1268, 1244,
                       1252, 1227, 1235, 1233, 469, 428, 660]


def traced_peak(call):
    """call()'s result and the peak bytes that tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dten_round_trip_f32(tmp_path):
    path = str(tmp_path / "a.dten")
    arr = np.random.default_rng(0).normal(size=(3, 4, 5)).astype(np.float32)
    dataio.write_dten(path, arr)
    np.testing.assert_array_equal(dataio.read_dten(path), arr)


def test_dten_round_trip_i32(tmp_path):
    path = str(tmp_path / "a.dten")
    arr = np.array([-2 ** 31, -5, 0, 7, 2 ** 31 - 1], dtype=np.int32)
    dataio.write_dten(path, arr)
    out = dataio.read_dten(path)
    assert out.dtype == np.dtype("<i4")
    np.testing.assert_array_equal(out, arr)
    # int64 in the i32 range writes the same bytes
    dataio.write_dten(str(tmp_path / "b.dten"), arr.astype(np.int64))
    assert (tmp_path / "b.dten").read_bytes() == Path(path).read_bytes()


def test_dten_float64_saves_as_f32(tmp_path):
    path = str(tmp_path / "a.dten")
    arr = np.array([1.0, np.pi])
    dataio.write_dten(path, arr)
    np.testing.assert_array_equal(dataio.read_dten(path),
                                  arr.astype(np.float32))


@pytest.mark.parametrize("value, dtype", [(2 ** 31, np.int64), (2 ** 32 - 1, np.uint32),
                                          (-2 ** 31 - 1, np.int64)])
def test_dten_refuses_ints_outside_i32_and_writes_nothing(tmp_path, value, dtype):
    with pytest.raises(ValueError, match=rf"^{value} at index \(1, 0\) is outside the int32"):
        dataio.write_dten(str(tmp_path / "a.dten"), np.array([[0, 1], [value, 2]], dtype))
    with pytest.raises(ValueError, match="outside the int32 range"):
        dataio.write_scene(str(tmp_path), np.zeros((1, 1, 2)), np.zeros((1, 1)),
                           np.array([[value]], dtype))
    assert sorted(os.listdir(tmp_path)) == ["hsi.dten", "lidar.dten"]


# the integer rule: each entry point that takes a label, row or column
# array, given one value its dtype refuses at index 1 of the first axis
RULE_VALUES = {"fraction": 1.5, "nan": np.nan, "int64-2**31": np.int64(2 ** 31),
               "uint64-2**32": np.uint64(2 ** 32)}
RULE_CASES = [pytest.param(entry, "labels", value, id=f"{entry}-{name}")
              for entry in ("write_scene", "extract_patches", "write_features")
              for name, value in RULE_VALUES.items()]
RULE_CASES += [pytest.param("write_features", "rows", np.int64(-1), id="write_features-rows-1"),
               pytest.param("write_dten", None, RULE_VALUES["int64-2**31"],
                            id="write_dten-int64-2**31"),
               pytest.param("write_dten", None, RULE_VALUES["uint64-2**32"],
                            id="write_dten-uint64-2**32")]


@pytest.mark.parametrize("entry, name, value", RULE_CASES)
def test_integer_rule_names_the_array_and_writes_nothing(tmp_path, entry, name, value):
    labels = np.ones((2, 2), dtype=np.asarray(value).dtype)
    rows = np.array([0, 0])
    (rows if name == "rows" else labels)[1] = value
    index = (1,) if entry == "write_features" else (1, 0)
    if labels.dtype.kind == "f":
        want = f"labels must hold integer class labels, got {labels.dtype}"
    else:
        range_ = "uint32" if name == "rows" else "int32"
        want = f"{value} at index {index} is outside the {range_} range"
        want = f"{name}: {want}" if name else want
    calls = {
        "write_scene": lambda: dataio.write_scene(str(tmp_path), np.zeros((2, 2, 1)),
                                                  np.zeros((2, 2)), labels),
        "extract_patches": lambda: dataio.extract_patches(np.zeros((2, 2, 1)),
                                                          np.zeros((2, 2)), labels, 1),
        "write_features": lambda: dataio.write_features(
            str(tmp_path / "f.hdcf"), rows, np.array([0, 1]), labels[:, 0],
            np.zeros((2, 3))),
        "write_dten": lambda: dataio.write_dten(str(tmp_path / "a.dten"), labels),
    }
    with pytest.raises(ValueError) as info:
        calls[entry]()
    assert str(info.value) == want
    # write_scene writes hsi.dten and lidar.dten before it reaches the labels
    written = ["hsi.dten", "lidar.dten"] if entry == "write_scene" else []
    assert sorted(os.listdir(tmp_path)) == written


@pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64])
def test_integer_rule_keeps_bool_uint8_and_int64_labels(tmp_path, dtype):
    rng = np.random.default_rng(5)
    hsi = rng.normal(size=(6, 7, 3))
    elev = rng.normal(size=(6, 7))
    labels = rng.integers(0, 2, size=(6, 7)).astype(np.int32)
    want = dataio.extract_patches(hsi, elev, labels, 3)
    got = dataio.extract_patches(hsi, elev, labels.astype(dtype), 3)
    assert got.labels.dtype == got.rows.dtype == got.cols.dtype == np.int32
    for field in ("labels", "rows", "cols", "lidar"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
    assert np.asarray(got.hsi).tobytes() == np.asarray(want.hsi).tobytes()
    dataio.write_scene(str(tmp_path), hsi, elev, labels.astype(dtype))
    assert dataio.read_scene(str(tmp_path))[2].tobytes() == labels.tobytes()


def test_dten_2x2_fixture_is_32_bytes(tmp_path):
    path = str(tmp_path / "a.dten")
    dataio.write_dten(path, np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32))
    blob = Path(path).read_bytes()
    # 4 magic + 2 version + 1 dtype + 1 ndim + 2*4 dims + 4*4 payload
    assert len(blob) == 32
    assert blob[:4] == b"DTEN"


def test_dten_bad_magic(tmp_path):
    path = str(tmp_path / "a.dten")
    dataio.write_dten(path, np.zeros(2, dtype=np.float32))
    blob = bytearray(Path(path).read_bytes())
    blob[:4] = b"XXXX"
    Path(path).write_bytes(bytes(blob))
    with pytest.raises(FormatError) as exc:
        dataio.read_dten(path)
    assert exc.value.offset == 0


def test_dten_bad_version(tmp_path):
    path = str(tmp_path / "a.dten")
    dataio.write_dten(path, np.zeros(2, dtype=np.float32))
    blob = bytearray(Path(path).read_bytes())
    blob[4] = 9
    Path(path).write_bytes(bytes(blob))
    with pytest.raises(FormatError) as exc:
        dataio.read_dten(path)
    assert exc.value.offset == 4


def test_dten_bad_dtype_code(tmp_path):
    path = str(tmp_path / "a.dten")
    dataio.write_dten(path, np.zeros(2, dtype=np.float32))
    blob = bytearray(Path(path).read_bytes())
    blob[6] = 77
    Path(path).write_bytes(bytes(blob))
    with pytest.raises(FormatError) as exc:
        dataio.read_dten(path)
    assert exc.value.offset == 6


def test_dten_truncations_and_trailing(tmp_path):
    path = str(tmp_path / "a.dten")
    dataio.write_dten(path, np.zeros((2, 3), dtype=np.float32))
    blob = Path(path).read_bytes()
    for cut in (5, 10, len(blob) - 4):
        Path(path).write_bytes(blob[:cut])
        with pytest.raises(FormatError) as exc:
            dataio.read_dten(path)
        assert exc.value.offset == cut
    Path(path).write_bytes(blob + b"zz")
    with pytest.raises(FormatError) as exc:
        dataio.read_dten(path)
    assert exc.value.offset == len(blob)


def test_features_round_trip(tmp_path):
    path = str(tmp_path / "f.hdcf")
    rng = np.random.default_rng(1)
    rows = rng.integers(0, 100, size=7).astype(np.uint32)
    cols = rng.integers(0, 100, size=7).astype(np.uint32)
    labels = rng.integers(1, 5, size=7).astype(np.int32)
    feats = rng.normal(size=(7, 6)).astype(np.float32)
    dataio.write_features(path, rows, cols, labels, feats)
    r, c, l, f = dataio.read_features(path)
    np.testing.assert_array_equal(r, rows)
    np.testing.assert_array_equal(c, cols)
    np.testing.assert_array_equal(l, labels)
    np.testing.assert_array_equal(f, feats)


def test_features_bad_magic_and_trailing(tmp_path):
    path = str(tmp_path / "f.hdcf")
    dataio.write_features(path, [0], [0], [1], np.zeros((1, 2), np.float32))
    blob = Path(path).read_bytes()
    Path(path).write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(FormatError) as exc:
        dataio.read_features(path)
    assert exc.value.offset == 0
    Path(path).write_bytes(blob + b"x")
    with pytest.raises(FormatError):
        dataio.read_features(path)


def test_failed_write_leaves_no_file(tmp_path):
    path = str(tmp_path / "t.dten")
    with pytest.raises(TypeError):
        dataio._atomic_write(path, b"DTEN", object())
    assert os.listdir(tmp_path) == []


def test_features_float64_table_writes_float32_table_bytes(tmp_path):
    rng = np.random.default_rng(4)
    feats = rng.normal(size=(50, 12))
    idx = np.arange(50, dtype=np.int32)
    paths = [str(tmp_path / "f64.hdcf"), str(tmp_path / "f32.hdcf")]
    for path, table in zip(paths, (feats, feats.astype(np.float32))):
        dataio.write_features(path, idx, idx, idx, table)
    assert Path(paths[0]).read_bytes() == Path(paths[1]).read_bytes()


def test_writers_hold_no_extra_copy_of_the_payload(tmp_path):
    rng = np.random.default_rng(5)
    feats = rng.standard_normal((15000, 200))
    idx = np.arange(feats.shape[0], dtype=np.int32)
    cases = [(dataio.write_features, (idx, idx, idx, feats)),
             (dataio.write_dten, (rng.standard_normal((2000, 1000)),))]
    for write, args in cases:
        path = str(tmp_path / "out")
        peak = traced_peak(lambda: write(path, *args))[1]
        assert peak < 1.5 * os.path.getsize(path), write.__name__


def test_readers_hold_one_copy_of_the_payload(tmp_path):
    rng = np.random.default_rng(5)
    feats = rng.standard_normal((15000, 200))
    idx = np.arange(feats.shape[0], dtype=np.int32)
    features, tensor = str(tmp_path / "f.hdcf"), str(tmp_path / "t.dten")
    dataio.write_features(features, idx, idx, idx, feats)
    dataio.write_dten(tensor, rng.standard_normal((2000, 1000)))
    for read, path in ((dataio.read_features, features), (dataio.read_dten, tensor)):
        peak = traced_peak(lambda: read(path))[1]
        assert peak < 1.5 * os.path.getsize(path), read.__name__


def test_scene_round_trip(tmp_path):
    d = str(tmp_path / "scene")
    rng = np.random.default_rng(2)
    hsi = rng.normal(size=(6, 7, 3)).astype(np.float32)
    elev = rng.normal(size=(6, 7)).astype(np.float32)
    labels = rng.integers(0, 3, size=(6, 7)).astype(np.int32)
    dataio.write_scene(d, hsi, elev, labels)
    h2, e2, l2 = dataio.read_scene(d)
    assert (h2.dtype, e2.dtype, l2.dtype) == (np.float32, np.float32, np.int32)
    np.testing.assert_array_equal(h2, hsi)
    np.testing.assert_array_equal(e2, elev)
    np.testing.assert_array_equal(l2, labels)


def test_read_scene_holds_the_payloads_once(tmp_path):
    d = str(tmp_path / "scene")
    dataio.write_scene(d, *dataio.gen_synthetic(60, 64, 4, 144,
                                                np.random.default_rng(3)))
    scene, peak = traced_peak(lambda: dataio.read_scene(d))
    assert peak <= 1.1 * sum(a.nbytes for a in scene)


def test_extract_constant_cube_and_grid():
    hsi = np.full((8, 9, 2), 3.5)
    hsi[:, :, 1] = -1.0
    elev = np.full((8, 9), 2.0)
    labels = np.zeros((8, 9), dtype=np.int32)
    labels[4, 4] = 1
    ps = dataio.extract_patches(hsi, elev, labels, b=5)
    assert len(ps) == 1 and ps.hsi.b == 5 and ps.hsi.shape[3] == 2
    # constant bands standardize to 0 (std floor keeps it finite)
    np.testing.assert_allclose(ps.hsi[0], 0.0, atol=1e-7)
    axis = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    np.testing.assert_allclose(ps.lidar[0, :, 0], np.tile(axis, 5), atol=1e-7)
    np.testing.assert_allclose(ps.lidar[0, :, 1], np.repeat(axis, 5), atol=1e-7)
    center = 25 // 2
    np.testing.assert_allclose(ps.lidar[0, center, :2], 0.0, atol=0)


def test_extract_corner_mirror_reflection():
    # raster value 10*i + j identifies the source pixel of every patch cell
    vals = (10 * np.arange(4)[:, None] + np.arange(4)[None, :]).astype(float)
    hsi = vals[..., None]
    labels = np.zeros((4, 4), dtype=np.int32)
    labels[0, 0] = 1
    ps = dataio.extract_patches(hsi, vals, labels, b=3)
    # standardization over the single labeled pixel subtracts vals[0, 0] = 0
    # and divides by the std floor fallback 1
    rows = [1, 0, 1]
    cols = [1, 0, 1]
    want = np.array([[vals[i, j] for j in cols] for i in rows])
    np.testing.assert_allclose(np.asarray(ps.hsi)[0, :, :, 0], want, atol=1e-6)
    # elevation standardizes over the whole scene, not the labeled pixels
    want_z = (want - vals.mean()) / vals.std()
    np.testing.assert_allclose(ps.lidar[0, :, 2].reshape(3, 3), want_z, atol=1e-6)


def test_extract_point_pixel_alignment():
    rng = np.random.default_rng(3)
    hsi = rng.normal(size=(10, 11, 4))
    elev = rng.normal(size=(10, 11))
    labels = (rng.uniform(size=(10, 11)) < 0.4).astype(np.int32)
    labels[5, 5] = 1
    b = 5
    ps = dataio.extract_patches(hsi, elev, labels, b=b)
    axis = np.linspace(-1, 1, b)
    for p in range(b * b):
        np.testing.assert_allclose(ps.lidar[:, p, 0], axis[p % b], atol=1e-7)
        np.testing.assert_allclose(ps.lidar[:, p, 1], axis[p // b], atol=1e-7)


def test_extract_standardization_moments():
    rng = np.random.default_rng(4)
    hsi = rng.normal(2.0, 5.0, size=(20, 21, 3))
    elev = rng.normal(size=(20, 21))
    labels = (rng.uniform(size=(20, 21)) < 0.6).astype(np.int32)
    ps = dataio.extract_patches(hsi, elev, labels, b=3)
    center = (3 * 3) // 2
    spectra = np.asarray(ps.hsi).reshape(len(ps), 9, 3)[:, center, :].astype(np.float64)
    np.testing.assert_allclose(spectra.mean(axis=0), 0.0, atol=1e-6)
    np.testing.assert_allclose(spectra.std(axis=0), 1.0, atol=1e-6)


def test_extract_muufl_shaped_count():
    rng = np.random.default_rng(5)
    labels = np.zeros(325 * 220, dtype=np.int32)
    pick = rng.choice(labels.size, size=53687, replace=False)
    labels[pick] = rng.integers(1, 12, size=53687)
    labels = labels.reshape(325, 220)
    hsi = rng.normal(size=(325, 220, 3)).astype(np.float32)
    elev = rng.normal(size=(325, 220)).astype(np.float32)
    ps = dataio.extract_patches(hsi, elev, labels, b=5)
    assert len(ps) == 53687


def test_extract_rejections():
    hsi = np.zeros((5, 5, 2))
    elev = np.zeros((5, 5))
    labels = np.ones((5, 5), dtype=np.int32)
    with pytest.raises(ValueError):
        dataio.extract_patches(hsi, elev, labels, b=4)
    with pytest.raises(ValueError):
        dataio.extract_patches(hsi, np.zeros((4, 5)), labels, b=3)
    with pytest.raises(ValueError):
        dataio.extract_patches(hsi, elev, np.zeros((5, 5), np.int32), b=3)
    with pytest.raises(ValueError, match=r"at least one band, got \(5, 5, 0\)"):
        dataio.extract_patches(hsi[:, :, :0], elev, labels, b=3)


def window_oracle(hsi, elev, labels, b):
    """The former gather: a float64 (N, C, b, b) sliding-window gather,
    transposed and then cast to float32."""
    from numpy.lib.stride_tricks import sliding_window_view

    mask = labels > 0
    band_std = hsi[mask].std(axis=0)
    band_std = np.where(band_std < 1e-12, 1.0, band_std)
    hsi_n = (hsi - hsi[mask].mean(axis=0)) / band_std
    el_n = (elev - elev.mean()) / elev.std()
    r = b // 2
    hsi_n = np.pad(hsi_n, ((r, r), (r, r), (0, 0)), mode="reflect")
    el_n = np.pad(el_n, r, mode="reflect")
    rows, cols = np.nonzero(mask)
    patches = sliding_window_view(hsi_n, (b, b), axis=(0, 1))[rows, cols]
    patches = np.transpose(patches, (0, 2, 3, 1)).astype(np.float32)
    heights = sliding_window_view(el_n, (b, b))[rows, cols].reshape(len(rows), b * b)
    return patches, heights.astype(np.float32)


@pytest.mark.parametrize("b", [1, 3, 5, 7])
def test_extract_gather_matches_window_oracle(b):
    rng = np.random.default_rng(20 + b)
    hsi = rng.normal(1.0, 3.0, size=(9, 10, 6))
    elev = rng.normal(size=(9, 10))
    labels = (rng.uniform(size=(9, 10)) < 0.5).astype(np.int32)
    # every corner and a pixel on each edge, so the reflected border is read
    for i, j in [(0, 0), (0, 9), (8, 0), (8, 9), (0, 4), (8, 5), (3, 0), (6, 9)]:
        labels[i, j] = 2
    # and the smallest scene the mirror allows, every pixel labeled: with
    # r + 1 rows, offset -r of row 0 reflects to the last row and offset
    # +r of the last row to row 0
    small = (b // 2 + 1, b // 2 + 2)
    scenes = [(hsi, elev, labels),
              (rng.normal(1.0, 3.0, size=(*small, 6)), rng.normal(size=small),
               np.ones(small, dtype=np.int32))]
    for hsi, elev, labels in scenes:
        ps = dataio.extract_patches(hsi, elev, labels, b)
        want_hsi, want_heights = window_oracle(hsi, elev, labels, b)
        assert ps.hsi.scene.dtype == np.float32 and ps.hsi.shape == want_hsi.shape
        np.testing.assert_array_equal(ps.hsi, want_hsi)
        np.testing.assert_array_equal(ps.lidar[:, :, 2], want_heights)


def test_extract_peak_memory_stays_near_output():
    # the spectra are held once, as the float32 scene, not as a
    # b*b-fold (N, b, b, C) copy: at b = 9 that copy alone is about 40x
    # the float64 scene
    hsi, elev, labels = dataio.gen_synthetic(40, 40, 4, 64, np.random.default_rng(0))
    for b in (5, 9):
        ps, peak = traced_peak(lambda: dataio.extract_patches(hsi, elev, labels, b=b))
        assert peak < 4 * hsi.nbytes + ps.lidar.nbytes, b


@pytest.mark.parametrize("bands", [1, 2, 3, 7])
@pytest.mark.parametrize("chunk", [1 << 10, 1 << 23])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_extract_chunked_matches_window_oracle(bands, chunk, dtype, monkeypatch):
    # moments gathered a block of bands at a time and the scene
    # standardized a block of rows at a time give the same bytes as the
    # whole-scene float64 computation, in one chunk or in many
    monkeypatch.setattr(dataio, "_CHUNK_BYTES", chunk)
    rng = np.random.default_rng(30 + bands)
    hsi = rng.normal(1.0, 3.0, size=(11, 13, bands)).astype(dtype)
    elev = rng.normal(size=(11, 13)).astype(dtype)
    labels = (rng.uniform(size=(11, 13)) < 0.7).astype(np.int32)
    labels[0, 0] = labels[10, 12] = 1
    # a float32 hsi is standardized in place: the oracle reads the original
    ps = dataio.extract_patches(hsi.copy(), elev, labels, 5)
    want_hsi, want_heights = window_oracle(hsi.astype(np.float64),
                                           elev.astype(np.float64), labels, 5)
    np.testing.assert_array_equal(np.asarray(ps.hsi), want_hsi)
    np.testing.assert_array_equal(ps.lidar[:, :, 2], want_heights)


def test_extract_peak_memory_is_output_plus_one_chunk(monkeypatch):
    # the input scene exists before tracing starts, so the traced peak is
    # what extract_patches adds to it: the returned float32 scene,
    # points and coordinates, one chunk of float64 spectra, and per-pixel
    # bookkeeping (mask, coordinates, elevation rasters) of at most 64
    # bytes a pixel. A float64 standardized copy of the scene, or of its
    # labeled pixels, would add 8 bytes per value.
    chunk = 1 << 18
    monkeypatch.setattr(dataio, "_CHUNK_BYTES", chunk)
    hsi, elev, labels = dataio.gen_synthetic(60, 64, 4, 144, np.random.default_rng(1))
    for b in (5, 9):
        ps, peak = traced_peak(lambda: dataio.extract_patches(hsi, elev, labels, b=b))
        output = sum(a.nbytes for a in (ps.hsi.scene, ps.lidar, ps.labels,
                                         ps.rows, ps.cols))
        assert peak < output + chunk + 64 * labels.size, b


def in_place_scene():
    """A 60 x 64, 144-band float32 scene with 110 labeled pixels."""
    hsi, elev, labels = dataio.gen_synthetic(60, 64, 4, 144, np.random.default_rng(1))
    labels[np.random.default_rng(2).uniform(size=labels.shape) >= 0.03] = 0
    return hsi.astype(np.float32), elev, labels


def test_extract_standardizes_float32_scene_in_place(monkeypatch):
    # a writable float32 scene is standardized where it lies: besides the
    # points, labels and coordinates it returns, extract_patches allocates
    # one chunk and per-pixel bookkeeping, not a second scene
    monkeypatch.setattr(dataio, "_CHUNK_BYTES", 1 << 16)
    for b in (5, 9):
        hsi, elev, labels = in_place_scene()
        ps, peak = traced_peak(lambda: dataio.extract_patches(hsi, elev, labels, b=b))
        assert len(ps) == 110
        assert np.shares_memory(ps.hsi.scene, hsi), b
        output = sum(a.nbytes for a in (ps.lidar, ps.labels, ps.rows, ps.cols))
        assert peak - output < hsi.nbytes / 4, b


def test_extract_leaves_float64_and_read_only_input_unchanged():
    hsi32, elev, labels = in_place_scene()
    read_only = hsi32.copy()
    read_only.flags.writeable = False
    want = dataio.extract_patches(hsi32.copy(), elev, labels, 5)
    for hsi in (read_only, hsi32.astype(np.float64)):
        before = hsi.copy()
        ps = dataio.extract_patches(hsi, elev, labels, 5)
        np.testing.assert_array_equal(hsi, before)
        assert ps.hsi.scene.dtype == np.float32, hsi.dtype
        assert not np.shares_memory(ps.hsi.scene, hsi), hsi.dtype
    # the read-only scene gets the bytes the in-place path writes
    np.testing.assert_array_equal(
        dataio.extract_patches(read_only, elev, labels, 5).hsi.scene, want.hsi.scene)


@pytest.mark.parametrize("where,fragment", [
    ((3, 4, 1), "row 3, col 4, band 1"),
    ((0, 0, 0), "row 0, col 0, band 0"),
    ((8, 9, 2), "row 8, col 9, band 2"),
])
def test_extract_rejects_nonfinite_spectra(where, fragment, monkeypatch):
    monkeypatch.setattr(dataio, "_CHUNK_BYTES", 1 << 10)
    rng = np.random.default_rng(40)
    hsi = rng.normal(size=(9, 10, 3))
    elev = rng.normal(size=(9, 10))
    labels = np.zeros((9, 10), dtype=np.int32)
    labels[5, 5] = 1
    hsi[where] = np.nan
    # a later bad value, also an unlabeled one, does not hide the first
    hsi[8, 9, 2] = np.inf
    with pytest.raises(ValueError, match=f"hsi .*non-finite.* at {fragment}$"):
        dataio.extract_patches(hsi, elev, labels, 3)


def test_extract_rejects_nonfinite_elevation():
    rng = np.random.default_rng(41)
    hsi = rng.normal(size=(9, 10, 3))
    elev = rng.normal(size=(9, 10))
    elev[7, 2] = -np.inf
    elev[8, 0] = np.nan
    labels = np.ones((9, 10), dtype=np.int32)
    with pytest.raises(ValueError, match=r"elevation .*\(-inf\) at row 7, col 2$"):
        dataio.extract_patches(hsi, elev, labels, 3)


def test_patch_stack_indexing_matches_full_stack():
    rng = np.random.default_rng(6)
    hsi = rng.normal(size=(9, 10, 4))
    elev = rng.normal(size=(9, 10))
    labels = (rng.uniform(size=(9, 10)) < 0.6).astype(np.int32)
    labels[0, 0] = labels[8, 9] = 1
    ps = dataio.extract_patches(hsi, elev, labels, b=5)
    full = np.asarray(ps.hsi)
    n = len(ps)
    assert ps.hsi.shape == full.shape == (n, 5, 5, 4)
    assert ps.hsi.scene.dtype == full.dtype == np.float32
    keys = [slice(None), slice(3, 11), slice(None, None, -2), slice(n, n),
            slice(4, 4), np.array([n - 1, 0, 7, 7, 2, 0]), np.array([], dtype=np.int64),
            rng.permutation(n), 5, -1]
    for key in keys:
        got = ps.hsi[key]
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, full[key])
    assert ps.hsi[slice(4, 4)].shape == (0, 5, 5, 4)
    np.testing.assert_array_equal(np.asarray(ps.hsi, dtype=np.float64),
                                  full.astype(np.float64))
    assert isinstance(ps.hsi, dataio.PatchStack)
    np.testing.assert_array_equal(ps.center_spectra(), full[:, 2, 2, :])


def test_extract_returns_patch_stack_at_any_label_density():
    # 8 or 9 patches of 5 x 5 hold 200 or 225 window cells, more than the
    # 110 pixels of the scene, which the stack still gathers them from
    rng = np.random.default_rng(8)
    hsi = rng.normal(size=(10, 11, 3))
    elev = rng.normal(size=(10, 11))
    for n in (8, 9):
        labels = np.zeros(110, dtype=np.int32)
        labels[rng.choice(110, size=n, replace=False)] = 1
        labels = labels.reshape(10, 11)
        ps = dataio.extract_patches(hsi, elev, labels, b=5)
        assert type(ps.hsi) is dataio.PatchStack, n
        want_hsi, _ = window_oracle(hsi, elev, labels, 5)
        np.testing.assert_array_equal(np.asarray(ps.hsi), want_hsi)
        np.testing.assert_array_equal(ps.hsi[::-1], want_hsi[::-1])
        np.testing.assert_array_equal(ps.center_spectra(), want_hsi[:, 2, 2, :])


def test_split_water_row_fixture():
    labels = np.ones(466, dtype=np.int32)
    train, test = dataio.stratified_split(labels, 0.05,
                                          np.random.default_rng(0))
    assert train.shape[0] == 23 and test.shape[0] == 443


def test_split_houston_totals_fixture():
    labels = np.concatenate([
        np.full(n, cls + 1, dtype=np.int32)
        for cls, n in enumerate(HOUSTON_CLASS_SIZES)
    ])
    assert labels.shape[0] == 15029
    train, test = dataio.stratified_split(labels, 0.05,
                                          np.random.default_rng(0))
    assert train.shape[0] == 745 and test.shape[0] == 14284
    # disjoint cover
    assert np.intersect1d(train, test).size == 0
    assert np.union1d(train, test).size == 15029


def test_split_floor_with_minimum_one():
    labels = np.array([1, 1, 2] * 1, dtype=np.int32)
    train, test = dataio.stratified_split(np.array([1, 1]), 0.5,
                                          np.random.default_rng(1))
    assert train.shape[0] == 1 and test.shape[0] == 1
    # 19 samples at 5% floors to 0 but is clamped to 1
    train, test = dataio.stratified_split(np.full(19, 3), 0.05,
                                          np.random.default_rng(1))
    assert train.shape[0] == 1 and test.shape[0] == 18


def test_split_deterministic_and_stratified():
    rng = np.random.default_rng(6)
    labels = rng.integers(1, 5, size=400).astype(np.int32)
    a = dataio.stratified_split(labels, 0.1, np.random.default_rng(7))
    b = dataio.stratified_split(labels, 0.1, np.random.default_rng(7))
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    for cls in np.unique(labels):
        n_cls = (labels == cls).sum()
        got = (labels[a[0]] == cls).sum()
        assert got == max(1, int(np.floor(0.1 * n_cls)))


def test_split_rejects_bad_fraction():
    with pytest.raises(ValueError):
        dataio.stratified_split(np.ones(5, np.int32), 0.0,
                                np.random.default_rng(0))
    with pytest.raises(ValueError):
        dataio.stratified_split(np.ones(5, np.int32), 1.0,
                                np.random.default_rng(0))


def test_gen_synthetic_deterministic():
    a = dataio.gen_synthetic(16, 12, 3, 8, np.random.default_rng(5))
    b = dataio.gen_synthetic(16, 12, 3, 8, np.random.default_rng(5))
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_gen_synthetic_single_class():
    _, _, labels = dataio.gen_synthetic(9, 7, 1, 4, np.random.default_rng(6))
    assert np.all(labels == 1)


def test_gen_synthetic_shapes_and_labels():
    hsi, elev, labels = dataio.gen_synthetic(64, 64, 4, 16,
                                             np.random.default_rng(0))
    assert hsi.shape == (64, 64, 16)
    assert elev.shape == (64, 64) and labels.shape == (64, 64)
    assert set(np.unique(labels)) == {1, 2, 3, 4}


def test_gen_synthetic_noise_scale_and_nearest_mean_accuracy():
    hsi, _, labels = dataio.gen_synthetic(64, 64, 4, 16,
                                          np.random.default_rng(1))
    assert set(np.unique(labels)) == {1, 2, 3, 4}
    # the spectral noise has sigma 0.1 times the range of the class's
    # signature, which the class mean estimates
    sig = np.stack([hsi[labels == c].mean(axis=0) for c in range(1, 5)])
    for c in range(1, 5):
        rel = (hsi[labels == c] - sig[c - 1]).std() / np.ptp(sig[c - 1])
        assert 0.095 <= rel <= 0.105, (c, rel)
    d = ((hsi[..., None, :] - sig[None, None]) ** 2).sum(axis=-1)
    pred = d.argmin(axis=-1) + 1
    assert (pred == labels).mean() >= 0.98


def test_gen_synthetic_adds_signatures_a_block_of_rows_at_a_time(monkeypatch):
    # one block over the whole scene is the one-shot
    # noise * sigma + signatures[class_map]; blocks of one row give the
    # same bytes and keep the traced peak near the scene's float64 bytes
    args = (64, 64, 5, 144)
    monkeypatch.setattr(dataio, "_CHUNK_BYTES", 1 << 40)
    whole = dataio.gen_synthetic(*args, np.random.default_rng(3))
    monkeypatch.setattr(dataio, "_CHUNK_BYTES", 1 << 16)
    rows, peak = traced_peak(lambda: dataio.gen_synthetic(*args, np.random.default_rng(3)))
    for a, b in zip(whole, rows):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert peak <= 1.2 * rows[0].nbytes, peak / rows[0].nbytes


def test_gen_synthetic_rejects_bad_dims():
    with pytest.raises(ValueError):
        dataio.gen_synthetic(0, 4, 2, 4, np.random.default_rng(0))
    with pytest.raises(ValueError):
        dataio.gen_synthetic(4, 4, 0, 4, np.random.default_rng(0))
