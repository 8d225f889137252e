"""On-disk formats: MMPC point clouds, TNSR tensors, JSONL boxes, JSON
camera/pose files.

MMPC v1: 4-byte magic ``MMPC``, u32 little-endian point count, then one
(x, y, z, intensity) record of four little-endian float32 per point.

TNSR v1: one UTF-8 JSON header line ``{"shape":[C,D,H,W]}`` terminated by
a newline, followed by the raw little-endian float64 payload in row-major
order.

Boxes: JSON lines with keys ``center``, ``dims``, ``R`` (9 values,
row-major), ``category``, optional ``score`` and ``image``.

Every JSON reader checks the type of each value it reads, so a malformed
file raises a ValueError that names the offending key.
"""

from __future__ import annotations

import json
import math
import struct
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .geom import Box3D, CameraIntrinsics, FeatureMap, PointCloud, Pose

MMPC_MAGIC = b"MMPC"

_KINDS = {bool: "true or false", int: "an integer", float: "a number",
          str: "a string", list: "a list", dict: "an object"}


def json_value(value, kind: type, name: str):
    """``value`` parsed from JSON if it is of ``kind`` (bool, int, float,
    str, list or dict); otherwise a ValueError naming ``name``.  A bool is
    neither an int nor a float, and a float may be written as an integer."""
    types = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, types):
        raise ValueError(f"{name} must be {_KINDS[kind]}, got {value!r}")
    return float(value) if kind is float else value


def json_array(value, name: str, kind: type = float) -> np.ndarray:
    """A JSON number or rectangular nest of lists of numbers as a float64
    array (int64 for ``kind=int``); otherwise a ValueError naming ``name``."""
    def numeric(v) -> bool:
        if isinstance(v, list):
            return all(numeric(x) for x in v)
        return isinstance(v, (int, float) if kind is float else int) and not isinstance(v, bool)

    if numeric(value):
        try:
            return np.asarray(value, dtype=np.float64 if kind is float else np.int64)
        except (ValueError, OverflowError):
            pass  # ragged nesting or an integer beyond int64
    what = "integers" if kind is int else "numbers"
    raise ValueError(f"{name} must be {what} in a rectangular list, got {value!r}")


def write_json(path, payload) -> None:
    """``payload`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json_object(path, keys: Sequence[str] = ()) -> dict:
    """The JSON object stored in ``path``, holding at least ``keys``; any
    other top-level value, or a missing key, is a ValueError naming the
    file."""
    with open(path, "r", encoding="utf-8") as fh:
        d = json_value(json.load(fh), dict, f"{path}: top level")
    missing = [k for k in keys if k not in d]
    if missing:
        raise ValueError(f"{path}: missing key {missing[0]!r}")
    return d


def write_mmpc(path, pc: PointCloud) -> None:
    payload = np.ascontiguousarray(pc.points, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(MMPC_MAGIC)
        fh.write(struct.pack("<I", len(pc)))
        fh.write(payload.tobytes())


def read_mmpc(path) -> PointCloud:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MMPC_MAGIC:
            raise ValueError(f"not an MMPC file: bad magic {magic!r}")
        head = fh.read(4)
        if len(head) != 4:
            raise ValueError(f"MMPC header holds {len(head)} of the 4 point-count bytes")
        (count,) = struct.unpack("<I", head)
        raw = fh.read()
    expected = count * 16
    if len(raw) != expected:
        raise ValueError(f"MMPC payload is {len(raw)} bytes, expected {expected}")
    pts = np.frombuffer(raw, dtype="<f4").reshape(count, 4)
    # a signalling NaN warns as it widens; PointCloud refuses it all the same
    with np.errstate(invalid="ignore"):
        pts = pts.astype(np.float64)
    return PointCloud(pts)


def write_tnsr(path, tensor) -> None:
    data = tensor.data if isinstance(tensor, FeatureMap) else np.asarray(tensor, dtype=np.float64)
    if data.ndim != 4:
        raise ValueError("TNSR tensors are rank 4 (C, D, H, W)")
    header = json.dumps({"shape": list(data.shape)}, separators=(",", ":"))
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8"))
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(data, dtype="<f8").tobytes())


def read_tnsr(path) -> FeatureMap:
    with open(path, "rb") as fh:
        header = fh.readline()
        raw = fh.read()
    try:
        fields = json_value(json.loads(header.decode("utf-8")), dict, "header")
        shape = tuple(json_value(v, int, "shape entry")
                      for v in json_value(fields["shape"], list, "shape"))
    except (ValueError, KeyError, UnicodeDecodeError) as exc:
        raise ValueError(f"bad TNSR header: {exc}") from exc
    if len(shape) != 4:
        raise ValueError(f"TNSR shape must have 4 axes, got {shape}")
    if min(shape) < 0:
        raise ValueError(f"TNSR shape must not have negative dimensions, got {shape}")
    nbytes, limit = 8, np.iinfo(np.intp).max
    for axis, size in enumerate(shape):
        nbytes *= size or 1  # numpy sizes an array by its non-zero axes
        if nbytes > limit:
            raise ValueError(f"TNSR header: axis {axis} of shape {list(shape)} makes "
                             f"the array larger than {limit} bytes")
    n = math.prod(shape)
    if len(raw) != 8 * n:
        raise ValueError(f"TNSR payload is {len(raw)} bytes, expected {8 * n}")
    return FeatureMap(np.frombuffer(raw, dtype="<f8").reshape(shape))


def box_to_dict(box: Box3D, image: Optional[int] = None) -> dict:
    d = {
        "center": box.center.tolist(),
        "dims": box.dims.tolist(),
        "R": box.rotation.reshape(-1).tolist(),
        "category": box.category,
    }
    if box.score is not None:
        d["score"] = box.score
    if image is not None:
        d["image"] = image
    return d


def box_from_dict(d: dict) -> Tuple[int, Box3D]:
    d = json_value(d, dict, "record")
    missing = [k for k in ("center", "dims", "R") if k not in d]
    if missing:
        raise ValueError(f"missing key {missing[0]!r}")
    box = Box3D(
        json_array(d["center"], "center"),
        json_array(d["dims"], "dims"),
        json_array(d["R"], "R").reshape(3, 3),
        category=json_value(d.get("category", 0), int, "category"),
        score=(None if d.get("score") is None else json_value(d["score"], float, "score")),
    )
    return json_value(d.get("image", 0), int, "image"), box


def write_boxes_jsonl(path, boxes: Sequence) -> None:
    """``boxes`` may be Box3D or (image_id, Box3D) pairs."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in boxes:
            img, box = (None, rec) if isinstance(rec, Box3D) else rec
            fh.write(json.dumps(box_to_dict(box, img), separators=(",", ":")))
            fh.write("\n")


def read_boxes_jsonl(path) -> List[Tuple[int, Box3D]]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(box_from_dict(json.loads(line)))
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: bad box record: {exc}") from exc
    return out


def write_intrinsics(path, K: CameraIntrinsics) -> None:
    write_json(path, {"fx": K.fx, "fy": K.fy, "cx": K.cx, "cy": K.cy,
                      "width": K.width, "height": K.height})


def read_intrinsics(path) -> CameraIntrinsics:
    d = read_json_object(path, ("fx", "fy", "cx", "cy", "width", "height"))
    try:
        return CameraIntrinsics(
            **{k: json_value(d[k], float, k) for k in ("fx", "fy", "cx", "cy")},
            **{k: json_value(d[k], int, k) for k in ("width", "height")},
        )
    except ValueError as exc:
        raise ValueError(f"{path}: bad intrinsics: {exc}") from exc


def write_pose(path, pose: Pose) -> None:
    write_json(path, {"R": pose.rotation.reshape(-1).tolist(), "t": pose.translation.tolist()})


def read_pose(path) -> Pose:
    d = read_json_object(path, ("R", "t"))
    try:
        return Pose(json_array(d["R"], "R").reshape(3, 3), json_array(d["t"], "t"))
    except ValueError as exc:
        raise ValueError(f"{path}: bad pose: {exc}") from exc
