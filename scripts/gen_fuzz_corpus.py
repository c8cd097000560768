#!/usr/bin/env python3
"""Generate the checked-in seed corpora under tests/fuzz_corpus/.

Run from anywhere after regenerating tests/data/diamond.plan:
  python3 scripts/gen_fuzz_corpus.py
"""
import struct, os, shutil

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(REPO, "tests", "data")
CORPUS = os.path.join(REPO, "tests", "fuzz_corpus")

FNV_BASIS = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
MASK = (1 << 64) - 1

HEADER = 96                # plan format v2
CHECKSUM = HEADER - 8      # the header's last field

def fnv1a(h, data):
    """FNV-1a over little-endian 8-byte words, a ragged tail zero-padded."""
    data = bytes(data) + b"\x00" * (-len(data) % 8)
    for (word,) in struct.iter_unpack("<Q", data):
        h = ((h ^ word) * FNV_PRIME) & MASK
    return h

def restamp(img):
    """Return img with the checksum field re-stamped."""
    img = bytearray(img)
    zeroed = bytes(img[:CHECKSUM]) + b"\x00" * 8 + bytes(img[HEADER:])
    total = fnv1a(FNV_BASIS, zeroed)
    img[CHECKSUM:HEADER] = struct.pack("<Q", total)
    return bytes(img)

plan = open(os.path.join(DATA, "diamond.plan"), "rb").read()
assert len(plan) == 304, len(plan)
# Sanity: the golden file's checksum must round-trip through our FNV.
assert restamp(plan) == plan, "FNV mismatch vs golden plan"

def w(sub, name, data):
    path = os.path.join(CORPUS, sub, name)
    with open(path, "wb") as f:
        f.write(data)
    print(f"{sub}/{name}: {len(data)} bytes")

def patched(img, off, fmt, value, stamp=True):
    img = bytearray(img)
    img[off:off + struct.calcsize(fmt)] = struct.pack(fmt, value)
    return restamp(bytes(img)) if stamp else bytes(img)

# --- plan_load ----------------------------------------------------------
w("plan_load", "diamond_valid.plan", plan)
w("plan_load", "empty.bin", b"")
w("plan_load", "truncated_header.bin", plan[:60])
w("plan_load", "truncated_payload.bin", plan[:200])
w("plan_load", "trailing_garbage.bin", restamp(plan + b"\xcc" * 16))
w("plan_load", "bad_magic.bin", b"NOTAPLAN" + plan[8:])
w("plan_load", "bad_version.bin", patched(plan, 8, "<I", 999))
w("plan_load", "bad_endian.bin", patched(plan, 12, "<I", 0x04030201))
w("plan_load", "bad_width.bin", patched(plan, 16, "<I", 32))
w("plan_load", "zero_vertices.bin", patched(plan, 24, "<Q", 0))
# Counts that overflow the payload-size arithmetic: num_vertices near 2^64.
w("plan_load", "overflow_vertices.bin", patched(plan, 24, "<Q", (1 << 64) - 2))
# Counts that pass arithmetic but dwarf the actual file size.
w("plan_load", "oversized_edges.bin", patched(plan, 32, "<Q", 1 << 40))
# Stale checksum (single payload bit flipped, checksum left alone).
stale = bytearray(plan); stale[300] ^= 0x40
w("plan_load", "stale_checksum.bin", bytes(stale))
# Forged checksum + structural corruption: restamped so the corruption
# reaches the structural validators.
w("plan_load", "nan_delta.bin", patched(plan, 40, "<d", float("nan")))
w("plan_load", "negative_delta.bin", patched(plan, 40, "<d", -1.0))
# row_ptr rise-then-fall: first row_ptr entry after header; row_ptr[1] at
# header+8. diamond has n=5, e=10: row_ptr is 6 u64s at offset 96.
w("plan_load", "rowptr_risefall.bin", patched(plan, HEADER + 8, "<Q", 1 << 20))
w("plan_load", "rowptr_nonmonotone.bin", patched(plan, HEADER + 16, "<Q", 0))
# col_ind out of range: col_ind starts at 96 + 6*8 = 144.
w("plan_load", "colind_oob.bin", patched(plan, 144, "<Q", 1 << 30))
# negative weight: val starts at 144 + 10*8 = 224.
w("plan_load", "negative_weight.bin", patched(plan, 224, "<d", -2.0))
w("plan_load", "nan_weight.bin", patched(plan, 224, "<d", float("nan")))
w("plan_load", "inf_weight.bin", patched(plan, 224, "<d", float("inf")))

# --- matrix_market ------------------------------------------------------
shutil.copy(os.path.join(DATA, "diamond.mtx"),
            os.path.join(CORPUS, "matrix_market", "diamond_valid.mtx"))
print("matrix_market/diamond_valid.mtx: copied")
w("matrix_market", "empty.mtx", b"")
w("matrix_market", "banner_only.mtx",
  b"%%MatrixMarket matrix coordinate real general\n")
w("matrix_market", "bad_banner.mtx", b"%%NotMatrixMarket x y z w\n1 1 1\n")
w("matrix_market", "huge_nnz.mtx",
  b"%%MatrixMarket matrix coordinate real general\n"
  b"4 4 18446744073709551615\n1 2 1.0\n")
w("matrix_market", "huge_nnz_symmetric.mtx",
  b"%%MatrixMarket matrix coordinate real symmetric\n"
  b"4 4 9999999999\n1 2 1.0\n")
w("matrix_market", "nan_weight.mtx",
  b"%%MatrixMarket matrix coordinate real general\n3 3 1\n1 2 nan\n")
w("matrix_market", "inf_weight.mtx",
  b"%%MatrixMarket matrix coordinate real general\n3 3 1\n1 2 inf\n")
w("matrix_market", "oob_entry.mtx",
  b"%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1.0\n")
w("matrix_market", "nonsquare.mtx",
  b"%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1.0\n")
w("matrix_market", "pattern_symmetric.mtx",
  b"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n1 2\n2 3\n")
w("matrix_market", "missing_entries.mtx",
  b"%%MatrixMarket matrix coordinate real general\n3 3 5\n1 2 1.0\n")
w("matrix_market", "negative_dim.mtx",
  b"%%MatrixMarket matrix coordinate real general\n-3 -3 1\n1 1 1.0\n")

# --- snap ---------------------------------------------------------------
shutil.copy(os.path.join(DATA, "diamond.snap"),
            os.path.join(CORPUS, "snap", "diamond_valid.snap"))
print("snap/diamond_valid.snap: copied")
w("snap", "empty.snap", b"")
w("snap", "comments_only.snap", b"# just a comment\n# another\n")
w("snap", "unweighted.snap", b"0 1\n1 2\n2 0\n")
w("snap", "bad_weight.snap", b"0\t1\txyz\n")
w("snap", "nan_weight.snap", b"0 1 nan\n")
w("snap", "inf_weight.snap", b"0 1 -inf\n")
w("snap", "negative_id.snap", b"-5 1 1.0\n")
w("snap", "huge_id.snap", b"99999999999999999999999999 1 1.0\n")
w("snap", "sparse_ids.snap", b"1000000 2000000 0.5\n2000000 1000000 0.25\n")

# --- capi_server --------------------------------------------------------
# Prefix: u32 source, u8 algorithm selector byte, u8 num_queries, 2 pad.
def prefix(source, alg_byte, nq):
    return struct.pack("<IBBxx", source, alg_byte, nq)

w("capi_server", "valid_auto.bin", prefix(0, 0, 3) + plan)       # alg -1 AUTO
w("capi_server", "valid_fused.bin", prefix(2, 5, 2) + plan)      # alg 4 fused
w("capi_server", "capi_rejected.bin", prefix(0, 4, 1) + plan)    # alg 3 kCapi
w("capi_server", "bad_alg.bin", prefix(1, 11, 1) + plan)         # alg 10 invalid
w("capi_server", "oob_source.bin", prefix(4096, 0, 2) + plan)
w("capi_server", "corrupt_plan.bin", prefix(0, 0, 1) + bytes(stale))
# Cut inside the 96-byte header.
w("capi_server", "truncated_plan.bin", prefix(0, 0, 1) + plan[:80])
w("capi_server", "prefix_only.bin", prefix(0, 0, 7))
w("capi_server", "short.bin", b"\x01\x02")
