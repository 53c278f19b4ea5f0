"""Wire-protocol properties: round-trips and error paths."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import wire
from repro.cluster.wire import (
    WIRE_VERSION,
    TruncatedFrameError,
    VersionMismatchError,
    WireError,
    decode_frame,
    decode_frame_info,
    encode_frame,
    frame_nbytes,
    header_nbytes,
)

DTYPES = st.sampled_from(
    [
        np.dtype("float16"),
        np.dtype("float32"),
        np.dtype("float64"),
        np.dtype("int8"),
        np.dtype("int16"),
        np.dtype("int32"),
        np.dtype("int64"),
        np.dtype("uint8"),
        np.dtype("uint32"),
        np.dtype("bool"),
    ]
)
SHAPES = st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=4).map(
    tuple
)


def _array(dtype: np.dtype, shape: tuple[int, ...], seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if dtype.kind == "f":
        return rng.normal(scale=10.0, size=shape).astype(dtype)
    if dtype.kind == "b":
        return rng.integers(0, 2, size=shape).astype(dtype)
    info = np.iinfo(dtype)
    # stay well inside the range so int64 sampling doesn't overflow
    lo, hi = max(info.min, -(2**31)), min(info.max, 2**31 - 1)
    return rng.integers(lo, hi, size=shape, endpoint=True).astype(dtype)


@given(dtype=DTYPES, shape=SHAPES, seed=st.integers(0, 2**16))
@settings(max_examples=120, deadline=None)
def test_roundtrip_exact(dtype, shape, seed):
    array = _array(dtype, shape, seed)
    frame = encode_frame(array)
    decoded, consumed = decode_frame(frame)
    assert consumed == len(frame)
    assert decoded.dtype == array.dtype
    assert decoded.shape == array.shape
    np.testing.assert_array_equal(decoded, array)
    assert len(frame) == frame_nbytes(array.shape, array.dtype.itemsize)


@given(dtype=DTYPES, shape=SHAPES, seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_roundtrip_noncontiguous(dtype, shape, seed):
    """Strided views (transposes, slices) encode like their copies."""
    array = _array(dtype, shape, seed)
    views = [array.T]
    if array.ndim >= 1 and array.shape[0] > 1:
        views.append(array[::-1])
        views.append(array[::2])
    for view in views:
        decoded, _ = decode_frame(encode_frame(view))
        np.testing.assert_array_equal(decoded, view)


@given(
    shape=st.lists(st.integers(1, 5), min_size=1, max_size=3).map(tuple),
    seed=st.integers(0, 2**16),
    dtype=st.sampled_from([np.dtype("float32"), np.dtype("float64")]),
)
@settings(max_examples=60, deadline=None)
def test_fp16_roundtrip_tolerance(shape, seed, dtype):
    array = _array(dtype, shape, seed)
    frame = encode_frame(array, downcast_fp16=True)
    assert len(frame) == frame_nbytes(array.shape, array.dtype.itemsize, True)
    decoded, _ = decode_frame(frame)
    assert decoded.dtype == array.dtype  # logical dtype restored
    # fp16 relative error bound for values inside fp16 range
    np.testing.assert_allclose(decoded, array, rtol=2**-10, atol=2**-23)


def test_fp16_ignored_for_integers():
    array = np.arange(12, dtype=np.int32).reshape(3, 4)
    assert encode_frame(array, downcast_fp16=True) == encode_frame(array)


def test_determinism_byte_identical():
    array = np.linspace(-3, 3, 24, dtype=np.float32).reshape(2, 3, 4)
    assert encode_frame(array) == encode_frame(array.copy())


def test_concatenated_frames_decode_sequentially():
    a = np.arange(6, dtype=np.float32).reshape(2, 3)
    b = np.array([True, False])
    buffer = encode_frame(a) + encode_frame(b)
    first, consumed = decode_frame(buffer)
    second, consumed2 = decode_frame(buffer[consumed:])
    np.testing.assert_array_equal(first, a)
    np.testing.assert_array_equal(second, b)
    assert consumed + consumed2 == len(buffer)


@given(seed=st.integers(0, 2**16), cut=st.floats(0.0, 0.999))
@settings(max_examples=60, deadline=None)
def test_truncated_frame_raises_at_any_cut(seed, cut):
    array = _array(np.dtype("float32"), (3, 4), seed)
    frame = encode_frame(array)
    with pytest.raises(TruncatedFrameError):
        decode_frame(frame[: int(len(frame) * cut)])


def test_version_mismatch():
    frame = bytearray(encode_frame(np.zeros(2, dtype=np.float32)))
    frame[2] = WIRE_VERSION + 1
    with pytest.raises(VersionMismatchError):
        decode_frame(bytes(frame))


def test_bad_magic_rejected():
    frame = bytearray(encode_frame(np.zeros(2, dtype=np.float32)))
    frame[0:2] = b"XX"
    with pytest.raises(WireError):
        decode_frame(bytes(frame))


def _frame(array: np.ndarray, flags: int = 0, version: int = WIRE_VERSION,
           tag: bytes | None = None) -> bytes:
    """Hand-build a frame the encoder would not: any flags, version, dtype tag."""
    payload = np.ascontiguousarray(array).tobytes()
    tag = array.dtype.str.encode("ascii") if tag is None else tag
    parts = [wire._PREFIX.pack(wire._MAGIC, version, flags, tag, array.ndim)]
    parts.extend(wire._DIM.pack(dim) for dim in array.shape)
    if flags & wire._FLAG_INT8:
        parts.append(wire._SCALE.pack(0.5))
    parts.append(wire._PAYLOAD_LEN.pack(len(payload)))
    parts.append(payload)
    return b"".join(parts)


_F32 = np.linspace(-2, 2, 12, dtype=np.float32).reshape(3, 4)
_I8 = np.arange(4, dtype=np.int8)


@pytest.mark.parametrize(
    "frame, error, match",
    [
        # a peer one revision behind (v1 had no int8 flag, no scale field)
        (_frame(_F32, version=1), VersionMismatchError, "version 1"),
        (_frame(_F32, 0x80), WireError, "reserved flag"),
        (_frame(_F32, 0x04 | wire._FLAG_FP16), WireError, "reserved flag"),
        # the exclusive pair used to decode as int8, silently
        (_frame(_I8, wire._FLAG_FP16 | wire._FLAG_INT8, tag=b"<f4"),
         WireError, "mutually exclusive"),
        # scaled-and-truncated integers / halves cast to integers
        (_frame(_I8, wire._FLAG_INT8, tag=b"<i4"), WireError, "int8 flag"),
        (_frame(_I8, wire._FLAG_INT8, tag=b"|u1"), WireError, "int8 flag"),
        (_frame(_F32.astype(np.float16), wire._FLAG_FP16, tag=b"<i4"),
         WireError, "fp16 flag"),
        (_frame(_F32.astype(np.float16), wire._FLAG_FP16), WireError, "fp16 flag"),
        (_frame(_F32, tag=b"garbage!"), WireError, "dtype tag"),
        (_frame(_F32, tag=b"\xff\xfe"), WireError, "dtype tag"),
        (_frame(np.zeros(2, dtype=np.int64), tag=b"|O"), WireError, "object"),
    ],
    ids=[
        "v1", "reserved-0x80", "reserved-next-to-fp16",
        "fp16-and-int8", "int8-flag-on-int32", "int8-flag-on-uint8",
        "fp16-flag-on-int32", "fp16-flag-on-float16", "garbage-dtype-tag",
        "non-ascii-dtype-tag", "object-dtype-tag",
    ],
)
def test_decoder_rejects_frames_the_encoder_never_writes(frame, error, match):
    with pytest.raises(error, match=match) as raised:
        decode_frame(frame)
    # the named error, not a subclass standing in for it
    assert type(raised.value) is error


def test_inconsistent_payload_length_rejected():
    array = np.zeros((2, 2), dtype=np.float32)
    frame = bytearray(encode_frame(array))
    # corrupt the announced payload length (last 8 header bytes)
    offset = header_nbytes(array.ndim) - 8
    frame[offset : offset + 8] = struct.pack("<Q", 7)
    with pytest.raises(WireError):
        decode_frame(bytes(frame))


def test_header_nbytes_validates_ndim():
    with pytest.raises(WireError):
        header_nbytes(-1)
    with pytest.raises(WireError):
        header_nbytes(wire._MAX_DIMS + 1)


def test_decoded_tensor_is_decoupled_from_buffer():
    array = np.ones(4, dtype=np.float32)
    frame = bytearray(encode_frame(array))
    decoded, _ = decode_frame(frame)
    frame[-4:] = b"\x00\x00\x00\x00"  # clobber the source buffer
    np.testing.assert_array_equal(decoded, array)


# -- int8 + scale frames ---------------------------------------------------


@given(
    shape=st.lists(st.integers(0, 5), min_size=0, max_size=4).map(tuple),
    seed=st.integers(0, 2**16),
    scale=st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=80, deadline=None)
def test_int8_payload_roundtrips_losslessly_with_scale(shape, seed, scale):
    """Already-int8 activations (quantized engine outputs) ship verbatim."""
    array = _array(np.dtype("int8"), shape, seed)
    frame = encode_frame(array, quantize_int8=True, scale=scale)
    assert len(frame) == frame_nbytes(array.shape, 1, quantize_int8=True)
    decoded, consumed, info = decode_frame_info(frame)
    assert consumed == len(frame)
    assert info.int8 and not info.fp16
    assert info.version == WIRE_VERSION
    assert info.scale == pytest.approx(np.float32(scale))
    assert decoded.dtype == np.int8
    np.testing.assert_array_equal(decoded, array)


@given(
    shape=st.lists(st.integers(1, 6), min_size=1, max_size=3).map(tuple),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_int8_strided_views_roundtrip(shape, seed):
    array = _array(np.dtype("int8"), shape, seed)
    views = [array.T]
    if array.shape[0] > 1:
        views.append(array[::-1])
        views.append(array[::2])
    for view in views:
        decoded, _, info = decode_frame_info(
            encode_frame(view, quantize_int8=True, scale=0.5)
        )
        assert info.int8
        np.testing.assert_array_equal(decoded, view)


@given(
    shape=st.lists(st.integers(1, 5), min_size=1, max_size=3).map(tuple),
    seed=st.integers(0, 2**16),
    dtype=st.sampled_from([np.dtype("float32"), np.dtype("float64")]),
)
@settings(max_examples=60, deadline=None)
def test_float_int8_quantization_error_bounded(shape, seed, dtype):
    """Float payloads quantized on the wire come back within scale/2."""
    array = _array(dtype, shape, seed)
    frame = encode_frame(array, quantize_int8=True)
    assert len(frame) == frame_nbytes(array.shape, dtype.itemsize, quantize_int8=True)
    decoded, _, info = decode_frame_info(frame)
    assert decoded.dtype == dtype  # logical dtype restored
    # symmetric round-to-nearest: |x - q*scale| <= scale/2 (+ f32 eps slack)
    bound = info.scale * 0.5 + 1e-5 * max(1.0, info.scale)
    assert float(np.max(np.abs(decoded - array))) <= bound


@given(seed=st.integers(0, 2**16), cut=st.floats(0.0, 0.999))
@settings(max_examples=60, deadline=None)
def test_truncated_int8_frame_raises_at_any_cut(seed, cut):
    array = _array(np.dtype("int8"), (3, 4), seed)
    frame = encode_frame(array, quantize_int8=True, scale=0.25)
    with pytest.raises(TruncatedFrameError):
        decode_frame(frame[: int(len(frame) * cut)])


def test_int8_frames_byte_deterministic():
    array = np.linspace(-3, 3, 24, dtype=np.float32).reshape(2, 3, 4)
    assert encode_frame(array, quantize_int8=True) == encode_frame(
        array.copy(), quantize_int8=True
    )


def test_fp16_and_int8_mutually_exclusive():
    array = np.zeros((2, 2), dtype=np.float32)
    with pytest.raises(WireError):
        encode_frame(array, downcast_fp16=True, quantize_int8=True)
    with pytest.raises(WireError):
        frame_nbytes((2, 2), 4, downcast_fp16=True, quantize_int8=True)


def test_int8_quantize_rejects_integer_payloads():
    with pytest.raises(WireError):
        encode_frame(np.zeros(3, dtype=np.int32), quantize_int8=True)


def test_encoded_frames_carry_current_version():
    frame = encode_frame(np.zeros(2, dtype=np.float32))
    assert frame[2] == WIRE_VERSION == 2

