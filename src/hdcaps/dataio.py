"""Scene and tensor I/O, patch extraction, splits, synthetic scenes.

Two small binary containers are used on disk, both little-endian:

DTEN (dense tensor):
    bytes 0-3   magic "DTEN"
    bytes 4-5   u16 version, currently 1
    byte  6     u8 dtype code: 1 = float32, 2 = int32
    byte  7     u8 ndim
    next 4*ndim u32 dimensions
    rest        row-major payload

HDCF (feature table):
    bytes 0-3   magic "HDCF"
    bytes 4-7   u32 record count n
    bytes 8-11  u32 feature dimension d
    then n records of (u32 row, u32 col, i32 label, d * f32 features)

Malformed files raise FormatError with the byte offset where parsing
failed. Every writer here, `write_json` included, writes a temp file and
renames it over the target, so readers never observe a half-written
file; an array is streamed from its own buffer after its header.

The integer rule: a label, row or column array at this edge is bool or
integer and fits the stored i32 (labels) or u32 (rows, cols), or a
ValueError from `_exact_int` names it. A label <= 0 means unlabeled.

`extract_patches` keeps the standardized spectra once, unpadded, as a
float32 scene in a `PatchStack`: indexing its first axis with a slice,
an integer or an integer array gathers only the selected b x b windows,
so a batch of B patches costs B*b*b*C floats and the whole (N, b, b, C)
stack is built only by `np.asarray`.

Precision: scenes and feature tables are held in the float32 they are
stored in. Only code that computes on the values widens them, a piece at
a time: `extract_patches` standardizes the spectra in float64 chunks,
`evaluation.fuse_features` takes float64 means of a batch's encoder
hidden maps, the extract path applies the feature head to those pooled
rows in float64 and rounds them once to float32, and the estimators in
`evaluation` cast their input at entry. The model takes its precision
from its parameters' dtype, float32, so training and the encoder pass of
extraction read the float32 patches as they are; only
`training.grad_check` runs in float64.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError

__all__ = [
    "write_dten",
    "read_dten",
    "write_features",
    "read_features",
    "write_json",
    "write_scene",
    "read_scene",
    "PatchStack",
    "PatchSet",
    "extract_patches",
    "stratified_split",
    "gen_synthetic",
]

DTEN_MAGIC = b"DTEN"
HDCF_MAGIC = b"HDCF"
DTEN_VERSION = 1
_DTYPE_CODES = {1: np.dtype("<f4"), 2: np.dtype("<i4")}
_STD_FLOOR = 1e-12
# float64 bytes that one step of extract_patches' chunked passes over the
# spectra works on
_CHUNK_BYTES = 1 << 23
# gen_synthetic's fixed recipe, described in its docstring
_CLASS_SEP = 1.2
_NOISE_SPEC = 0.1
_NOISE_ELEV = 0.1


def _atomic_write(path: str, *chunks) -> None:
    """Write the chunks (bytes, or C-contiguous arrays written from their
    own buffers) to path + ".tmp", then rename it over path. If the write
    or the rename raises, the temp file is removed and the error re-raised;
    an OSError that names the temp file names path instead."""
    tmp = path + ".tmp"
    try:
        fh = open(tmp, "wb")
        try:
            with fh:
                for chunk in chunks:
                    fh.write(chunk)
            os.replace(tmp, path)
        except BaseException:
            os.remove(tmp)
            raise
    except OSError as exc:
        if exc.filename != tmp:
            raise
        raise type(exc)(exc.errno, exc.strerror, path) from None


def _read_header(fh, path: str, magic: bytes, header_size: int):
    """(the first header_size bytes of fh, the file's size), checked for
    a complete header and its magic."""
    size = os.fstat(fh.fileno()).st_size
    if size < header_size:
        raise FormatError(path, size, "truncated header")
    head = fh.read(header_size)
    if head[:4] != magic:
        raise FormatError(path, 0, f"bad magic {head[:4]!r}, expected {magic!r}")
    return head, size


def _read_payload(fh, path: str, size: int, dtype: np.dtype, count: int,
                  what: str) -> np.ndarray:
    """The count items of dtype at fh's position, which must end the
    file, read once into the returned array."""
    end = fh.tell() + count * dtype.itemsize
    if size < end:
        raise FormatError(path, size, f"truncated {what}: expected {end} bytes total")
    if size > end:
        raise FormatError(path, end, f"trailing bytes after {what}")
    return np.fromfile(fh, dtype=dtype, count=count)


def _exact_int(array, dtype, name=None, what="class labels") -> np.ndarray:
    """array cast exactly to the integer dtype (the integer rule); a ValueError
    names a dtype not bool or integer, or the first value out of range."""
    array = np.asarray(array)
    if array.dtype.kind not in "biu":
        raise ValueError(f"{name} must hold integer {what}, got {array.dtype}")
    out = array.astype(dtype, copy=False)
    wrapped = np.flatnonzero(out != array) if out.dtype != array.dtype else []
    if len(wrapped):
        index = tuple(map(int, np.unravel_index(wrapped[0], array.shape)))
        raise ValueError(f"{name + ': ' if name else ''}{array[index]} at index "
                         f"{index} is outside the {out.dtype} range")
    return out


def write_json(path: str, obj) -> None:
    """Write obj as JSON with 2-space indent, sorted keys and a final newline."""
    _atomic_write(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode())


def write_dten(path: str, array: np.ndarray) -> None:
    """Serialize an array as DTEN. Floats store as f32, ints as i32 if i32 holds them."""
    array = np.asarray(array)
    kind = "i" if array.dtype.kind == "u" else array.dtype.kind
    code = next((c for c, dtype in _DTYPE_CODES.items() if dtype.kind == kind), None)
    if code is None:
        raise ValueError(f"cannot serialize dtype {array.dtype}")
    if any(dim >= 2 ** 32 for dim in array.shape):
        raise ValueError("dimension too large for the container")
    payload = _exact_int(array, _DTYPE_CODES[code]) if kind == "i" else array
    payload = np.ascontiguousarray(payload, dtype=_DTYPE_CODES[code])
    header = DTEN_MAGIC + struct.pack("<HBB", DTEN_VERSION, code, array.ndim)
    header += struct.pack(f"<{array.ndim}I", *array.shape)
    _atomic_write(path, header, payload)


def read_dten(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        head, size = _read_header(fh, path, DTEN_MAGIC, 8)
        version, code, ndim = struct.unpack_from("<HBB", head, 4)
        if version != DTEN_VERSION:
            raise FormatError(path, 4, f"unsupported version {version}")
        if code not in _DTYPE_CODES:
            raise FormatError(path, 6, f"unknown dtype code {code}")
        if size < 8 + 4 * ndim:
            raise FormatError(path, size, "truncated dimension list")
        shape = struct.unpack(f"<{ndim}I", fh.read(4 * ndim))
        payload = _read_payload(fh, path, size, _DTYPE_CODES[code],
                                math.prod(shape), "payload")
    return payload.reshape(shape)


def write_features(path: str, rows: np.ndarray, cols: np.ndarray,
                   labels: np.ndarray, feats: np.ndarray) -> None:
    """Serialize per-pixel features with row, col and label (the integer rule)."""
    feats = np.asarray(feats)
    n, dim = feats.shape
    if not (len(rows) == len(cols) == len(labels) == n):
        raise ValueError("rows, cols, labels and feats must have equal length")
    rec = np.zeros(n, dtype=[("row", "<u4"), ("col", "<u4"),
                             ("label", "<i4"), ("feat", "<f4", (dim,))])
    rec["row"] = _exact_int(rows, np.uint32, "rows", "pixel coordinates")
    rec["col"] = _exact_int(cols, np.uint32, "cols", "pixel coordinates")
    rec["label"] = _exact_int(labels, np.int32, "labels")
    rec["feat"] = feats
    _atomic_write(path, HDCF_MAGIC + struct.pack("<II", n, dim), rec)


def read_features(path: str):
    """Returns (rows u32, cols u32, labels i32, feats f32 (n, d)), the
    fields of one record array. A non-finite feature raises a ValueError
    naming the file, its record and its dimension."""
    with open(path, "rb") as fh:
        head, size = _read_header(fh, path, HDCF_MAGIC, 12)
        n, dim = struct.unpack_from("<II", head, 4)
        rec_dtype = np.dtype([("row", "<u4"), ("col", "<u4"),
                              ("label", "<i4"), ("feat", "<f4", (dim,))])
        rec = _read_payload(fh, path, size, rec_dtype, n, "records")
    _require_finite(path, rec["feat"], ("record", "dimension"), max(1, n))
    return rec["row"], rec["col"], rec["label"], rec["feat"]


def write_scene(directory: str, hsi: np.ndarray, elevation: np.ndarray,
                labels: np.ndarray) -> None:
    """Store a scene directory: hsi.dten (H,W,C f32), lidar.dten (H,W f32
    elevation raster), labels.dten (H,W i32 by the integer rule)."""
    os.makedirs(directory, exist_ok=True)
    write_dten(os.path.join(directory, "hsi.dten"), np.asarray(hsi, dtype=np.float32))
    write_dten(os.path.join(directory, "lidar.dten"),
               np.asarray(elevation, dtype=np.float32))
    write_dten(os.path.join(directory, "labels.dten"),
               _exact_int(labels, np.int32, "labels"))


def read_scene(directory: str):
    """Load (hsi, elevation, labels) written by write_scene: float32, float32, int32."""
    hsi = read_dten(os.path.join(directory, "hsi.dten"))
    elevation = read_dten(os.path.join(directory, "lidar.dten"))
    labels = read_dten(os.path.join(directory, "labels.dten"))
    if hsi.ndim != 3:
        raise ValueError("hsi.dten must hold a (H, W, C) tensor")
    if elevation.shape != hsi.shape[:2] or labels.shape != hsi.shape[:2]:
        raise ValueError("lidar/labels extents do not match hsi")
    return hsi, elevation, _exact_int(labels, np.int32, "labels.dten")


def _windows(rows, cols, b: int, extent):
    """Index arrays (..., b, 1) and (..., 1, b) that gather the b x b
    windows centered on pixels (rows, cols) of a scene of extent (H, W).
    Window cells past the border mirror back: index i maps to
    last - |last - |i||, last = H - 1 for rows and W - 1 for cols, which
    is np.pad(np.arange(n), b // 2, mode="reflect") for n >= b // 2 + 1."""
    offsets = np.arange(b) - b // 2
    win = [last - np.abs(last - np.abs(np.asarray(centers)[..., None] + offsets))
           for centers, last in ((rows, extent[0] - 1), (cols, extent[1] - 1))]
    return win[0][..., :, None], win[1][..., None, :]


class PatchStack:
    """The (N, b, b, C) stack of b x b windows of a scene, gathered from
    the scene on demand.

    scene: an (H, W, C) array at the scene's own extent: in a PatchSet,
    the standardized float32 spectra, the only copy of them; in
    `model.fused_features`, which takes only this form of spectral
    patches, their capsule lift (C = d_h) from `map_pixels`. rows, cols:
    (N,) scene coordinates of the patch centers.
    Patch i is the b x b window centered on (rows[i], cols[i]), its cells
    past the border mirrored back into the scene (see `_windows`).
    Indexing the first axis with an integer, a slice or an integer array
    gathers just those patches; `np.asarray` gathers all N.
    """

    def __init__(self, scene: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                 b: int):
        self.scene = scene
        self.rows = rows
        self.cols = cols
        self.b = b
        self.shape = (rows.shape[0], b, b, scene.shape[2])

    def __getitem__(self, key) -> np.ndarray:
        return self.scene[_windows(self.rows[key], self.cols[key], self.b,
                                   self.scene.shape)]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return self[:]

    def map_pixels(self, fn, block_bytes: int) -> "PatchStack":
        """The same windows over a map of the scene that holds fn's (n, D)
        values at the n pixels some window reads, mirrored cells included,
        and zero elsewhere, in fn's dtype. fn gets those pixels' (n, C)
        values, one call per block of about block_bytes of scene rows."""
        height, width, channels = self.scene.shape
        read = np.zeros((height, width), dtype=bool)
        read[_windows(self.rows, self.cols, self.b, read.shape)] = True
        step = max(1, block_bytes // (width * channels * self.scene.itemsize))
        mapped = None
        for start in range(0, height, step):
            mask = read[start:start + step]
            if mask.any():
                values = fn(self.scene[start:start + step][mask])
                if mapped is None:
                    mapped = np.zeros((height, width, values.shape[1]), values.dtype)
                mapped[start:start + step][mask] = values
        return PatchStack(mapped, self.rows, self.cols, self.b)


@dataclass
class PatchSet:
    """Extracted patches for every labeled pixel of a scene.

    hsi: the (N, b, b, C) float32 standardized spectra, as a lazy
    PatchStack that holds the standardized scene at its own extent and
    gathers a batch's windows when indexed;
    lidar: (N, b*b, 3) float32 point sets with grid x, grid y in [-1, 1]
    and standardized elevation z; labels, rows, cols: (N,) int32. Patch
    points are ordered row-major, so the center pixel is index
    (b*b) // 2. The patch size and band count are read from hsi
    (``hsi.b``, ``hsi.shape[3]``), which states them once.
    """

    hsi: PatchStack
    lidar: np.ndarray
    labels: np.ndarray
    rows: np.ndarray
    cols: np.ndarray

    def __len__(self) -> int:
        return self.labels.shape[0]

    def center_spectra(self) -> np.ndarray:
        """(N, C) standardized spectra of the patch centers."""
        return self.hsi.scene[self.rows, self.cols]


def _require_finite(name: str, array: np.ndarray, axes: tuple, rows: int) -> None:
    """Raise a ValueError naming the first non-finite entry of array in
    row-major order by its index on each of axes; array is read `rows`
    rows at a time."""
    for start in range(0, array.shape[0], rows):
        chunk = array[start:start + rows]
        finite = np.isfinite(chunk)
        if not finite.all():
            index = np.unravel_index(np.argmin(finite), finite.shape)
            where = ", ".join(f"{axis} {i}" for axis, i in
                              zip(axes, (start + index[0], *index[1:])))
            raise ValueError(f"{name} holds a non-finite value "
                             f"({chunk[index]}) at {where}")


def _band_moments(hsi: np.ndarray, mask: np.ndarray, n: int):
    """Per-band mean and std of the n labeled pixels, gathered a block of
    bands at a time. Each block keeps at least two bands (or the only
    one), so numpy reduces each column of the (n, bands) block row after
    row, as it does that column of the whole (n, C) array: the moments
    are bit-identical to those of hsi[mask]."""
    c_spec = hsi.shape[2]
    # the gathered block and the std's temporary are both float64
    blocks = min(max(1, c_spec // 2), -(-16 * n * c_spec // _CHUNK_BYTES))
    mean = np.empty(c_spec)
    std = np.empty(c_spec)
    for bands in np.array_split(np.arange(c_spec), blocks):
        sel = slice(bands[0], bands[-1] + 1)
        labeled = np.asarray(hsi[:, :, sel][mask], dtype=np.float64)
        mean[sel] = labeled.mean(axis=0)
        std[sel] = labeled.std(axis=0)
    return mean, np.where(std < _STD_FLOOR, 1.0, std)


def extract_patches(hsi: np.ndarray, elevation: np.ndarray,
                    labels: np.ndarray, b: int) -> PatchSet:
    """Cut one b x b patch around every labeled pixel (the integer rule).

    Borders are mirrored. Spectra are z-scored per band with moments
    computed over labeled pixels only; elevation is z-scored over the
    whole scene. Near-constant bands divide by 1 instead of ~0. A
    non-finite spectral value raises a ValueError naming its (row, col,
    band), a non-finite elevation one naming its (row, col).

    The spectra are read in row blocks of about _CHUNK_BYTES of float64,
    each value standardized as the float64 (x - mean) / std cast once to
    float32. The function owns a writable float32 hsi and writes the
    standardized scene into it; any other hsi is left as it is, and the
    standardized scene is one new float32 array.
    """
    hsi = np.asarray(hsi)
    elevation = np.asarray(elevation, dtype=np.float64)
    labels = _exact_int(labels, np.int32, "labels")
    if hsi.ndim != 3 or hsi.shape[2] == 0:
        raise ValueError(f"hsi must have shape (H, W, C) with at least one "
                         f"band, got {hsi.shape}")
    if elevation.shape != hsi.shape[:2] or labels.shape != hsi.shape[:2]:
        raise ValueError("elevation and labels must match the scene extent")
    if b < 1 or b % 2 == 0:
        raise ValueError("patch size b must be odd and positive")
    mask = labels > 0
    n = int(mask.sum())
    if n == 0:
        raise ValueError("scene has no labeled pixels")
    height, width, c_spec = hsi.shape
    if min(height, width) < b // 2 + 1:
        raise ValueError("scene too small for the requested patch size")
    step = max(1, _CHUNK_BYTES // (8 * width * c_spec))
    _require_finite("hsi", hsi, ("row", "col", "band"), step)
    _require_finite("elevation", elevation, ("row", "col"), height)

    rows, cols = (_exact_int(i, np.int32, "scene index") for i in np.nonzero(mask))
    el_std = elevation.std()
    el_n = (elevation - elevation.mean()) / (el_std if el_std >= _STD_FLOOR else 1.0)
    # cast before the gather, so its (n, b, b) temporary is float32
    el_n = el_n.astype(np.float32)
    axis = np.linspace(-1.0, 1.0, b) if b > 1 else np.zeros(1)
    gy, gx = np.meshgrid(axis, axis, indexing="ij")
    lidar = np.empty((n, b * b, 3), dtype=np.float32)
    lidar[:, :, 0] = gx.reshape(-1)
    lidar[:, :, 1] = gy.reshape(-1)
    lidar[:, :, 2] = el_n[_windows(rows, cols, b, el_n.shape)].reshape(n, b * b)

    band_mean, band_std = _band_moments(hsi, mask, n)
    in_place = hsi.dtype == np.float32 and hsi.flags.writeable
    scene = hsi if in_place else np.empty(hsi.shape, dtype=np.float32)
    for start in range(0, height, step):
        block = hsi[start:start + step].astype(np.float64)
        block -= band_mean
        block /= band_std
        scene[start:start + step] = block
        del block  # freed before the next block is read

    return PatchSet(
        hsi=PatchStack(scene, rows, cols, b), lidar=lidar,
        labels=labels[mask], rows=rows, cols=cols,
    )


def stratified_split(labels: np.ndarray, train_fraction: float,
                     rng: np.random.Generator):
    """Per-class random split; floor(fraction * n) train samples per
    class, at least 1. Returns sorted (train_idx, test_idx)."""
    labels = np.asarray(labels)
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    train, test = [], []
    for cls in np.unique(labels):
        idx = np.nonzero(labels == cls)[0]
        idx = idx[rng.permutation(idx.shape[0])]
        n_train = max(1, int(np.floor(train_fraction * idx.shape[0])))
        train.append(idx[:n_train])
        test.append(idx[n_train:])
    return np.sort(np.concatenate(train)), np.sort(np.concatenate(test))


def _fourier_mixture(rng: np.random.Generator, count: int, n_bands: int,
                     n_waves: int) -> np.ndarray:
    """`count` smooth random curves over the band index, each a sum of
    `n_waves` sinusoids with random amplitude, frequency and phase."""
    t = np.arange(n_bands) / max(1, n_bands)
    amp = rng.uniform(0.5, 1.5, size=(count, n_waves))
    freq = rng.uniform(0.5, 3.0, size=(count, n_waves))
    phase = rng.uniform(0, 2 * np.pi, size=(count, n_waves))
    out = np.zeros((count, n_bands))
    for j in range(n_waves):
        out += amp[:, j, None] * np.sin(
            2 * np.pi * freq[:, j, None] * t[None, :] + phase[:, j, None]
        )
    return out


def gen_synthetic(height: int, width: int, n_classes: int, n_bands: int,
                  rng: np.random.Generator):
    """Random scene with paired spectra, elevation and dense labels.

    Classes form Voronoi cells around random sites. Spectral signatures
    are random Fourier mixtures sharing a base continuum, separated
    mainly in overall brightness (per-class gains exp(_CLASS_SEP * rank)
    with ranks centered on zero, so gains are positive and distinct) and
    mildly in shape (per-class deviations of RMS size 0.1 * _CLASS_SEP),
    so signatures are distinct by construction; per-pixel Gaussian noise
    has sigma = _NOISE_SPEC times the signature's own range. Elevation
    gives each class a plateau offset, riding on smooth terrain plus
    Gaussian noise of scale _NOISE_ELEV. Consecutive offsets are spaced
    by (c + 1) * 2 * _NOISE_ELEV rather than evenly: with growing gaps no
    two classes sit at mirrored heights around the scene mean, so class
    identity survives even in features that only see the magnitude of
    the standardized elevation. The recipe is fixed: _CLASS_SEP = 1.2,
    _NOISE_SPEC = 0.1 and _NOISE_ELEV = 0.1.

    Returns (hsi, elevation, labels).
    """
    if n_classes < 1 or n_bands < 1 or height < 1 or width < 1:
        raise ValueError("scene dimensions, bands and classes must be positive")
    sites = rng.uniform(0, 1, size=(n_classes, 2)) * np.array([height, width])
    yy, xx = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    d2 = (yy[..., None] - sites[:, 0]) ** 2 + (xx[..., None] - sites[:, 1]) ** 2
    class_map = np.argmin(d2, axis=-1)
    labels = _exact_int(class_map + 1, np.int32)

    base = _fourier_mixture(rng, 1, n_bands, n_waves=4)
    deltas = _fourier_mixture(rng, n_classes, n_bands, n_waves=3)
    rms = np.sqrt(np.mean(deltas * deltas, axis=1, keepdims=True))
    rms = np.where(rms < _STD_FLOOR, 1.0, rms)
    spread = np.arange(n_classes) - (n_classes - 1) / 2.0
    spread /= max(1, n_classes - 1)
    gains = np.exp(_CLASS_SEP * rng.permutation(spread))
    signatures = gains[:, None] * base + 0.1 * _CLASS_SEP * deltas / rms

    ranges = signatures.max(axis=1) - signatures.min(axis=1)
    ranges = np.where(ranges < _STD_FLOOR, 1.0, ranges)
    sigma_map = _NOISE_SPEC * ranges[class_map]
    # built in place, the signatures added a block of about _CHUNK_BYTES
    # at a time: no second (H, W, B) array is made
    hsi = rng.normal(size=(height, width, n_bands))
    hsi *= sigma_map[..., None]
    step = max(1, _CHUNK_BYTES // (8 * width * n_bands))
    for start in range(0, height, step):
        hsi[start:start + step] += signatures[class_map[start:start + step]]

    spacing = 2.0 * _NOISE_ELEV
    fy = rng.uniform(0.5, 2.0, size=3)
    fx = rng.uniform(0.5, 2.0, size=3)
    ph = rng.uniform(0, 2 * np.pi, size=(3, 2))
    terrain = np.zeros((height, width))
    for j in range(3):
        terrain += 0.25 * spacing * (
            np.sin(2 * np.pi * fy[j] * yy / height + ph[j, 0])
            + np.sin(2 * np.pi * fx[j] * xx / width + ph[j, 1])
        ) / 3.0
    steps = np.arange(n_classes, dtype=np.float64)
    offsets = spacing * steps * (steps + 1) / 2.0
    elevation = offsets[class_map] + terrain + rng.normal(
        0.0, _NOISE_ELEV, size=(height, width)
    )
    return hsi, elevation, labels
