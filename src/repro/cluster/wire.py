"""Versioned wire protocol for activation tensors.

Cross-node hops ship intermediate activations as *frames*: a fixed
header (magic, version, flags, logical dtype, shape) followed by a
length-prefixed contiguous payload.  The format is deliberately boring
— little-endian integers, C-order payload bytes — so that encoding is
a pure function of the array's values: two identical DES runs that
stream the same tensors produce byte-identical frames, which is what
the cluster determinism tests assert.

Layout (all integers little-endian)::

    0    2   magic  b"RC"
    2    1   version (WIRE_VERSION)
    3    1   flags   (bit 0: payload downcast to float16,
                      bit 1: payload quantized to int8 + scale)
    4    8   dtype   numpy dtype.str, ascii, NUL-padded (logical dtype)
    12   1   ndim
    13   4n  shape   one u32 per dimension
    +    4   scale   f32 quantization scale (only when bit 1 set)
    +    8   payload length in bytes (u64)
    +    …   payload (C-order)

**fp16 downcast.**  With ``downcast_fp16=True`` a floating payload is
shipped as float16 and restored to the logical dtype on decode — a 2×
(float32) or 4× (float64) uplink saving at a bounded precision cost
(|x − roundtrip| ≤ max(2⁻¹¹·|x|, 2⁻²⁴) for values in float16 range).
Integer and bool payloads ignore the knob.

**int8 + scale.**  With ``quantize_int8=True`` a floating
payload is shipped as symmetric int8 (``round(x/scale)`` clipped to
±127, ``scale = amax/127``) plus one f32 scale in the header — a 4×
saving over float32 at quantization precision.  An array that is
*already* int8 (an activation produced by the quantized engine) is
shipped verbatim with the caller's ``scale`` riding in the header:
that round-trip is lossless, bit for bit.

Error paths raise :class:`TruncatedFrameError` (buffer shorter than its
own header/length claims), :class:`VersionMismatchError` (any revision
but ``WIRE_VERSION``) or plain :class:`WireError` for a header the
encoder never writes: reserved flag bits, fp16 and int8 together, a
flag on a logical dtype it cannot apply to, an unreadable dtype tag.
Both named errors subclass :class:`WireError`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WIRE_VERSION",
    "WireError",
    "TruncatedFrameError",
    "VersionMismatchError",
    "FrameInfo",
    "encode_frame",
    "decode_frame",
    "decode_frame_info",
    "frame_nbytes",
    "header_nbytes",
]

#: protocol revision; bump on any layout change
WIRE_VERSION = 2

_MAGIC = b"RC"
_FLAG_FP16 = 0x01
_FLAG_INT8 = 0x02
#: magic + version + flags + dtype[8] + ndim
_PREFIX = struct.Struct("<2sBB8sB")
_DIM = struct.Struct("<I")
_SCALE = struct.Struct("<f")
_PAYLOAD_LEN = struct.Struct("<Q")
_MAX_DIMS = 255


class WireError(ValueError):
    """Base class for activation-frame codec failures."""


class TruncatedFrameError(WireError):
    """The buffer ends before the frame it announces is complete."""


class VersionMismatchError(WireError):
    """The frame was encoded by an incompatible protocol revision."""


@dataclass(frozen=True)
class FrameInfo:
    """Decoded frame metadata (version, flags, quantization scale)."""

    version: int
    flags: int
    #: f32 quantization scale (1.0 unless the int8 flag is set)
    scale: float

    @property
    def fp16(self) -> bool:
        return bool(self.flags & _FLAG_FP16)

    @property
    def int8(self) -> bool:
        return bool(self.flags & _FLAG_INT8)


def header_nbytes(ndim: int, quantize_int8: bool = False) -> int:
    """Size of a frame header for an ``ndim``-dimensional tensor."""
    if not 0 <= ndim <= _MAX_DIMS:
        raise WireError(f"ndim must be in [0, {_MAX_DIMS}], got {ndim}")
    scale = _SCALE.size if quantize_int8 else 0
    return _PREFIX.size + ndim * _DIM.size + scale + _PAYLOAD_LEN.size


def frame_nbytes(
    shape: tuple[int, ...],
    itemsize: int,
    downcast_fp16: bool = False,
    quantize_int8: bool = False,
) -> int:
    """Encoded size of a frame without materializing it.

    The simulated links use this to charge transfer time for abstract
    activations: ``itemsize`` is the logical element size and the
    fp16/int8 flags shrink the payload exactly like
    :func:`encode_frame` (int8 also adds the 4-byte scale field).
    """
    if downcast_fp16 and quantize_int8:
        raise WireError("downcast_fp16 and quantize_int8 are mutually exclusive")
    elements = 1
    for dim in shape:
        elements *= int(dim)
    payload_itemsize = itemsize
    if quantize_int8:
        payload_itemsize = 1
    elif downcast_fp16 and itemsize > 2:
        payload_itemsize = 2
    return header_nbytes(len(shape), quantize_int8) + elements * payload_itemsize


def encode_frame(
    array: np.ndarray,
    downcast_fp16: bool = False,
    quantize_int8: bool = False,
    scale: float | None = None,
) -> bytes:
    """Encode one activation tensor as a self-delimiting frame.

    ``quantize_int8`` ships floating payloads as symmetric int8 with
    the f32 ``scale`` in the header.  An int8 input array is shipped
    verbatim (losslessly) with ``scale`` defaulting to 1.0 — pass the
    producing plan's activation scale so the receiver can dequantize.
    """
    array = np.asarray(array)
    if array.ndim > _MAX_DIMS:
        raise WireError(f"tensors with > {_MAX_DIMS} dims are not supported")
    if downcast_fp16 and quantize_int8:
        raise WireError("downcast_fp16 and quantize_int8 are mutually exclusive")
    logical = array.dtype
    dtype_tag = logical.str.encode("ascii")
    if len(dtype_tag) > 8:
        raise WireError(f"dtype tag {logical.str!r} exceeds the 8-byte field")
    flags = 0
    frame_scale = 1.0
    payload_array = np.ascontiguousarray(array)
    if logical == np.int8 and (quantize_int8 or scale is not None):
        # already-quantized activation: verbatim int8 payload + scale
        flags |= _FLAG_INT8
        frame_scale = 1.0 if scale is None else float(scale)
    elif quantize_int8:
        if logical.kind != "f":
            raise WireError(
                f"cannot int8-quantize a payload of dtype {logical}"
            )
        if scale is None:
            amax = float(np.max(np.abs(payload_array))) if array.size else 0.0
            frame_scale = amax / 127.0 if amax > 0.0 else 1.0
        else:
            frame_scale = float(scale)
        flags |= _FLAG_INT8
        q = np.rint(payload_array.astype(np.float64) / frame_scale)
        payload_array = np.clip(q, -127, 127).astype(np.int8)
    elif downcast_fp16 and logical.kind == "f" and logical.itemsize > 2:
        payload_array = payload_array.astype(np.float16)
        flags |= _FLAG_FP16
    payload = payload_array.tobytes()
    parts = [_PREFIX.pack(_MAGIC, WIRE_VERSION, flags, dtype_tag, array.ndim)]
    parts.extend(_DIM.pack(dim) for dim in array.shape)
    if flags & _FLAG_INT8:
        parts.append(_SCALE.pack(frame_scale))
    parts.append(_PAYLOAD_LEN.pack(len(payload)))
    parts.append(payload)
    return b"".join(parts)


def decode_frame_info(
    buffer: bytes | memoryview,
) -> tuple[np.ndarray, int, FrameInfo]:
    """Decode one frame; returns ``(tensor, bytes_consumed, info)``.

    The logical dtype is always restored: an fp16-downcast frame comes
    back as its original floating dtype (fp16 precision) and an
    int8-quantized floating frame is dequantized with the header scale.
    A frame whose *logical* dtype is int8 comes back verbatim, with the
    scale reported in ``info`` — that path is lossless.
    """
    view = memoryview(buffer)
    if len(view) < _PREFIX.size:
        raise TruncatedFrameError(
            f"buffer of {len(view)} bytes is shorter than the fixed header"
        )
    magic, version, flags, dtype_tag, ndim = _PREFIX.unpack_from(view, 0)
    if magic != _MAGIC:
        raise WireError(f"bad magic {magic!r}; not an activation frame")
    if version != WIRE_VERSION:
        raise VersionMismatchError(
            f"frame version {version}, this codec speaks {WIRE_VERSION}"
        )
    if flags & ~(_FLAG_FP16 | _FLAG_INT8):
        raise WireError(f"reserved flag bits set in {flags:#04x}")
    if flags == _FLAG_FP16 | _FLAG_INT8:
        raise WireError("fp16 and int8 flags are mutually exclusive")
    offset = _PREFIX.size
    scale_size = _SCALE.size if flags & _FLAG_INT8 else 0
    if len(view) < offset + ndim * _DIM.size + scale_size + _PAYLOAD_LEN.size:
        raise TruncatedFrameError("buffer ends inside the shape header")
    shape = tuple(
        _DIM.unpack_from(view, offset + i * _DIM.size)[0] for i in range(ndim)
    )
    offset += ndim * _DIM.size
    scale = 1.0
    if flags & _FLAG_INT8:
        (scale,) = _SCALE.unpack_from(view, offset)
        offset += _SCALE.size
    (payload_len,) = _PAYLOAD_LEN.unpack_from(view, offset)
    offset += _PAYLOAD_LEN.size
    if len(view) < offset + payload_len:
        raise TruncatedFrameError(
            f"payload of {payload_len} bytes announced, "
            f"{len(view) - offset} available"
        )
    try:
        logical = np.dtype(dtype_tag.rstrip(b"\x00").decode("ascii"))
    except (TypeError, ValueError) as exc:
        raise WireError(f"undecodable dtype tag {dtype_tag!r}") from exc
    if logical.hasobject:
        raise WireError(f"object dtype {logical} cannot travel in a frame")
    wire_dtype = logical
    if flags & _FLAG_INT8:
        if logical.kind != "f" and logical != np.int8:
            raise WireError(f"int8 flag on a payload of logical dtype {logical}")
        wire_dtype = np.dtype(np.int8)
    elif flags & _FLAG_FP16:
        if logical.kind != "f" or logical.itemsize <= 2:
            raise WireError(f"fp16 flag on a payload of logical dtype {logical}")
        wire_dtype = np.dtype(np.float16)
    elements = 1
    for dim in shape:
        elements *= dim
    if payload_len != elements * wire_dtype.itemsize:
        raise WireError(
            f"payload length {payload_len} inconsistent with shape {shape} "
            f"and dtype {wire_dtype}"
        )
    payload = np.frombuffer(view, dtype=wire_dtype, count=elements, offset=offset)
    tensor = payload.reshape(shape)
    if wire_dtype != logical:
        if flags & _FLAG_INT8:
            # dequantize back to the logical floating dtype
            tensor = (tensor.astype(np.float32) * np.float32(scale)).astype(
                logical
            )
        else:
            tensor = tensor.astype(logical)
    else:
        tensor = tensor.copy()  # decouple from the caller's buffer
    info = FrameInfo(version=version, flags=flags, scale=float(scale))
    return tensor, offset + payload_len, info


def decode_frame(buffer: bytes | memoryview) -> tuple[np.ndarray, int]:
    """Decode one frame; returns ``(tensor, bytes_consumed)``."""
    tensor, consumed, _info = decode_frame_info(buffer)
    return tensor, consumed
