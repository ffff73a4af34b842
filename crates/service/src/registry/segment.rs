//! Binary snapshot segments: sorted, indexed, immutable.
//!
//! A snapshot is the compacted form of registry history. Records are
//! stored sorted by fingerprint so a point lookup is `bloom filter →
//! sparse-index binary search → read one block → short scan`, touching a
//! bounded byte range instead of replaying anything. Codes (few — the
//! BEER economics: a handful of ECC functions across millions of chips)
//! are stored in full in every snapshot, so only the *newest* snapshot's
//! code section is ever loaded; older generations contribute records
//! only.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "BEERSNP1" · u32 version · u32 pad · u64 record_count
//! u64 offsets: codes, dims, records, sparse, bloom_fp, bloom_hash, end
//! [codes]      u32 n · n × (hash u64, idx u32, p u32, k u32, rows, fps)
//! [dims]       u32 n · n × (n u32, k u32, len u32, len × (hash, idx))
//! [records]    sorted by fingerprint; variable-length, see put_record
//! [sparse]     u32 n · n × (fp u128, offset-into-records u64)   (every 64th)
//! [bloom_fp]   u64 bits · bytes            (fingerprints, ~10 bits/key)
//! [bloom_hash] u64 bits · bytes            (canonical hashes)
//! ```
//!
//! Snapshots become visible only via an atomic temp-file + rename and a
//! manifest swap, so a reader never sees a partial file; any parse
//! failure here is real corruption and is surfaced as an error, unlike
//! the torn-line-tolerant text logs.

use super::format::{self, LineOutcome};
use super::CodeEntry;
use beer_core::trace::Fingerprint;
use beer_ecc::LinearCode;
use beer_gf2::{BitMatrix, BitVec};
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// One loaded code-section entry: `(hash, bucket index, code, evidence)`.
pub type CodeRow = (u64, u32, LinearCode, Vec<Fingerprint>);
/// One persisted dims run: `(n, k)` mapped to its sorted `(hash, idx)` list.
pub type DimsRun = ((usize, usize), Vec<(u64, u32)>);

const MAGIC: &[u8; 8] = b"BEERSNP1";
const VERSION: u32 = 1;
/// One sparse-index entry per this many records.
const SPARSE_EVERY: usize = 64;
/// Bloom filter density (bits per key).
const BLOOM_BITS_PER_KEY: u64 = 10;

/// One record as stored in a snapshot (and in the in-memory tail):
/// `Unique` outcomes are `(hash, bucket idx)` references into the code
/// index, never inline code clones, so a million records stay small.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapRecord {
    pub fingerprint: Fingerprint,
    pub tenant: String,
    pub outcome: LineOutcome,
}

fn mix64(mut x: u64) -> u64 {
    // splitmix64 finalizer.
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A fixed-size two-hash bloom filter over 64-bit keys (fingerprints
/// fold their halves together first).
pub struct Bloom {
    nbits: u64,
    bits: Vec<u8>,
}

impl Bloom {
    pub fn with_capacity(keys: usize) -> Bloom {
        let nbits = ((keys as u64).max(8) * BLOOM_BITS_PER_KEY).next_multiple_of(8);
        Bloom {
            nbits,
            bits: vec![0; (nbits / 8) as usize],
        }
    }

    fn slots(&self, key: u64) -> (usize, u8, usize, u8) {
        let h1 = mix64(key) % self.nbits;
        let h2 = mix64(key ^ 0xa076_1d64_78bd_642f) % self.nbits;
        (
            (h1 / 8) as usize,
            1 << (h1 % 8),
            (h2 / 8) as usize,
            1 << (h2 % 8),
        )
    }

    pub fn insert(&mut self, key: u64) {
        let (b1, m1, b2, m2) = self.slots(key);
        self.bits[b1] |= m1;
        self.bits[b2] |= m2;
    }

    pub fn contains(&self, key: u64) -> bool {
        let (b1, m1, b2, m2) = self.slots(key);
        self.bits[b1] & m1 != 0 && self.bits[b2] & m2 != 0
    }

    pub fn insert_fp(&mut self, fp: Fingerprint) {
        self.insert(fp_key(fp));
    }

    pub fn contains_fp(&self, fp: Fingerprint) -> bool {
        self.contains(fp_key(fp))
    }
}

fn fp_key(fp: Fingerprint) -> u64 {
    let v = fp.0;
    mix64(v as u64) ^ (v >> 64) as u64
}

// ---- little-endian buffer codec ------------------------------------------

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_u128(buf: &mut Vec<u8>, v: u128) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// A bounds-checked reader over a loaded section.
struct Slice<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Slice<'a> {
    fn new(buf: &'a [u8]) -> Slice<'a> {
        Slice { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| corrupt("section truncated"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn u128(&mut self) -> io::Result<u128> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    fn done(&self) -> bool {
        self.pos >= self.buf.len()
    }
}

fn corrupt(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("corrupt snapshot: {what}"),
    )
}

// ---- record codec --------------------------------------------------------

fn put_record(buf: &mut Vec<u8>, rec: &SnapRecord) {
    put_u128(buf, rec.fingerprint.0);
    put_u16(buf, rec.tenant.len() as u16);
    buf.extend_from_slice(rec.tenant.as_bytes());
    match &rec.outcome {
        LineOutcome::Unique { hash, idx } => {
            buf.push(format::OUTCOME_UNIQUE);
            put_u64(buf, *hash);
            put_u32(buf, *idx);
        }
        LineOutcome::Ambiguous { count, truncated } => {
            buf.push(format::OUTCOME_AMBIGUOUS);
            put_u64(buf, *count as u64);
            buf.push(u8::from(*truncated));
        }
        LineOutcome::Inconsistent => buf.push(format::OUTCOME_INCONSISTENT),
    }
}

fn get_record(s: &mut Slice<'_>) -> io::Result<SnapRecord> {
    let fingerprint = Fingerprint(s.u128()?);
    let tenant_len = s.u16()? as usize;
    let tenant =
        String::from_utf8(s.take(tenant_len)?.to_vec()).map_err(|_| corrupt("tenant not utf-8"))?;
    let outcome = match s.u8()? {
        format::OUTCOME_UNIQUE => LineOutcome::Unique {
            hash: s.u64()?,
            idx: s.u32()?,
        },
        format::OUTCOME_AMBIGUOUS => LineOutcome::Ambiguous {
            count: s.u64()? as usize,
            truncated: s.u8()? != 0,
        },
        format::OUTCOME_INCONSISTENT => LineOutcome::Inconsistent,
        _ => return Err(corrupt("outcome tag")),
    };
    Ok(SnapRecord {
        fingerprint,
        tenant,
        outcome,
    })
}

fn put_code_rows(buf: &mut Vec<u8>, code: &LinearCode) {
    let p = code.parity_submatrix();
    put_u32(buf, p.rows() as u32);
    put_u32(buf, p.cols() as u32);
    for row in p.iter_rows() {
        let mut bytes = vec![0u8; row.len().div_ceil(8)];
        for j in 0..row.len() {
            if row.get(j) {
                bytes[j / 8] |= 1 << (j % 8);
            }
        }
        buf.extend_from_slice(&bytes);
    }
}

fn get_code_rows(s: &mut Slice<'_>) -> io::Result<LinearCode> {
    let p = s.u32()? as usize;
    let k = s.u32()? as usize;
    if p > 4096 || k > 4096 {
        return Err(corrupt("code dimensions"));
    }
    let mut rows = Vec::with_capacity(p);
    for _ in 0..p {
        let bytes = s.take(k.div_ceil(8))?;
        let mut row = BitVec::zeros(k);
        for (j, row_j) in (0..k).map(|j| (j, (bytes[j / 8] >> (j % 8)) & 1)) {
            if row_j != 0 {
                row.set(j, true);
            }
        }
        rows.push(row);
    }
    LinearCode::from_parity_submatrix(BitMatrix::from_rows(&rows))
        .map_err(|_| corrupt("degenerate code"))
}

// ---- writer --------------------------------------------------------------

/// Writes a complete snapshot to `path` atomically (temp + rename).
///
/// `records` must arrive sorted by fingerprint with no duplicates (a
/// source error aborts the write); `count_hint` is an upper bound used
/// to size the bloom filter (the exact count is known only after a
/// merge dedups). Returns the record count actually written.
pub fn write_snapshot(
    path: &Path,
    codes: &HashMap<u64, Vec<CodeEntry>>,
    dims: &std::collections::BTreeMap<(usize, usize), Vec<(u64, u32)>>,
    records: impl Iterator<Item = io::Result<SnapRecord>>,
    count_hint: usize,
) -> io::Result<u64> {
    // Codes section, sorted by (hash, bucket idx) so the idx invariant is
    // explicit on disk.
    let mut codes_buf = Vec::new();
    let mut bloom_hash = Bloom::with_capacity(codes.len());
    let mut hashes: Vec<&u64> = codes.keys().collect();
    hashes.sort();
    let total_entries: usize = codes.values().map(Vec::len).sum();
    put_u32(&mut codes_buf, total_entries as u32);
    for hash in hashes {
        bloom_hash.insert(*hash);
        for (idx, entry) in codes[hash].iter().enumerate() {
            put_u64(&mut codes_buf, *hash);
            put_u32(&mut codes_buf, idx as u32);
            put_code_rows(&mut codes_buf, &entry.code);
            put_u32(&mut codes_buf, entry.fingerprints.len() as u32);
            for fp in &entry.fingerprints {
                put_u128(&mut codes_buf, fp.0);
            }
        }
    }

    // Dims runs: the sorted (n, k) → (hash, idx) index, persisted so a
    // reopen seeds pagination-stable runs without recomputing.
    let mut dims_buf = Vec::new();
    put_u32(&mut dims_buf, dims.len() as u32);
    for ((n, k), run) in dims {
        put_u32(&mut dims_buf, *n as u32);
        put_u32(&mut dims_buf, *k as u32);
        put_u32(&mut dims_buf, run.len() as u32);
        for (hash, idx) in run {
            put_u64(&mut dims_buf, *hash);
            put_u32(&mut dims_buf, *idx);
        }
    }

    // Records + sparse index + fingerprint bloom, in one pass.
    let mut records_buf = Vec::new();
    let mut sparse: Vec<(u128, u64)> = Vec::new();
    let mut bloom_fp = Bloom::with_capacity(count_hint.max(1));
    let mut n_records = 0u64;
    let mut last_fp: Option<Fingerprint> = None;
    for rec in records {
        let rec = rec?;
        debug_assert!(
            last_fp.is_none_or(|prev| prev < rec.fingerprint),
            "records must be sorted and unique"
        );
        last_fp = Some(rec.fingerprint);
        if (n_records as usize).is_multiple_of(SPARSE_EVERY) {
            sparse.push((rec.fingerprint.0, records_buf.len() as u64));
        }
        bloom_fp.insert_fp(rec.fingerprint);
        put_record(&mut records_buf, &rec);
        n_records += 1;
    }
    let mut sparse_buf = Vec::new();
    put_u32(&mut sparse_buf, sparse.len() as u32);
    for (fp, off) in &sparse {
        put_u128(&mut sparse_buf, *fp);
        put_u64(&mut sparse_buf, *off);
    }
    let mut bloom_fp_buf = Vec::new();
    put_u64(&mut bloom_fp_buf, bloom_fp.nbits);
    bloom_fp_buf.extend_from_slice(&bloom_fp.bits);
    let mut bloom_hash_buf = Vec::new();
    put_u64(&mut bloom_hash_buf, bloom_hash.nbits);
    bloom_hash_buf.extend_from_slice(&bloom_hash.bits);

    // Header, then sections, via temp + rename.
    const HEADER_LEN: u64 = 8 + 4 + 4 + 8 + 7 * 8;
    let off_codes = HEADER_LEN;
    let off_dims = off_codes + codes_buf.len() as u64;
    let off_records = off_dims + dims_buf.len() as u64;
    let off_sparse = off_records + records_buf.len() as u64;
    let off_bloom_fp = off_sparse + sparse_buf.len() as u64;
    let off_bloom_hash = off_bloom_fp + bloom_fp_buf.len() as u64;
    let end = off_bloom_hash + bloom_hash_buf.len() as u64;

    let mut header = Vec::with_capacity(HEADER_LEN as usize);
    header.extend_from_slice(MAGIC);
    put_u32(&mut header, VERSION);
    put_u32(&mut header, 0);
    put_u64(&mut header, n_records);
    for off in [
        off_codes,
        off_dims,
        off_records,
        off_sparse,
        off_bloom_fp,
        off_bloom_hash,
        end,
    ] {
        put_u64(&mut header, off);
    }

    let tmp = path.with_extension("tmp");
    {
        let mut file = File::create(&tmp)?;
        file.write_all(&header)?;
        file.write_all(&codes_buf)?;
        file.write_all(&dims_buf)?;
        file.write_all(&records_buf)?;
        file.write_all(&sparse_buf)?;
        file.write_all(&bloom_fp_buf)?;
        file.write_all(&bloom_hash_buf)?;
        file.flush()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(n_records)
}

// ---- reader --------------------------------------------------------------

/// An open snapshot: indexes in memory, records probed on disk through an
/// interior-mutable handle (lookups take `&self`).
pub struct Snapshot {
    path: PathBuf,
    generation: u64,
    file: Mutex<File>,
    record_count: u64,
    off_codes: u64,
    off_dims: u64,
    off_records: u64,
    off_sparse: u64,
    sparse: Vec<(u128, u64)>,
    bloom_fp: Bloom,
    bloom_hash: Bloom,
}

impl Snapshot {
    /// Opens a snapshot, loading header + sparse index + blooms — the
    /// record and code sections stay on disk until asked for.
    pub fn open(path: PathBuf, generation: u64) -> io::Result<Snapshot> {
        let mut file = File::open(&path)?;
        let mut header = [0u8; 8 + 4 + 4 + 8 + 7 * 8];
        file.read_exact(&mut header)?;
        let mut s = Slice::new(&header);
        if s.take(8)? != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let version = s.u32()?;
        if version != VERSION {
            return Err(corrupt("unknown snapshot version"));
        }
        s.u32()?; // pad
        let record_count = s.u64()?;
        let off_codes = s.u64()?;
        let off_dims = s.u64()?;
        let off_records = s.u64()?;
        let off_sparse = s.u64()?;
        let off_bloom_fp = s.u64()?;
        let off_bloom_hash = s.u64()?;
        let end = s.u64()?;
        if !(off_codes <= off_dims
            && off_dims <= off_records
            && off_records <= off_sparse
            && off_sparse <= off_bloom_fp
            && off_bloom_fp <= off_bloom_hash
            && off_bloom_hash <= end)
        {
            return Err(corrupt("section offsets out of order"));
        }

        let sparse_raw = read_section(&mut file, off_sparse, off_bloom_fp)?;
        let mut s = Slice::new(&sparse_raw);
        let n = s.u32()? as usize;
        let mut sparse = Vec::with_capacity(n);
        for _ in 0..n {
            sparse.push((s.u128()?, s.u64()?));
        }

        let bloom_fp = read_bloom(&mut file, off_bloom_fp, off_bloom_hash)?;
        let bloom_hash = read_bloom(&mut file, off_bloom_hash, end)?;

        Ok(Snapshot {
            path,
            generation,
            file: Mutex::new(file),
            record_count,
            off_codes,
            off_dims,
            off_records,
            off_sparse,
            sparse,
            bloom_fp,
            bloom_hash,
        })
    }

    pub fn generation(&self) -> u64 {
        self.generation
    }

    pub fn record_count(&self) -> u64 {
        self.record_count
    }

    /// Bloom pre-filter: false means definitely absent.
    pub fn maybe_contains(&self, fp: Fingerprint) -> bool {
        self.bloom_fp.contains_fp(fp)
    }

    /// Bloom pre-filter over canonical code hashes.
    pub fn maybe_contains_hash(&self, hash: u64) -> bool {
        self.bloom_hash.contains(hash)
    }

    /// Point lookup: sparse-index binary search, one bounded block read,
    /// short scan. Call [`Snapshot::maybe_contains`] first.
    pub fn probe(&self, fp: Fingerprint) -> io::Result<Option<SnapRecord>> {
        // Greatest sparse entry ≤ fp opens the block that could hold it.
        let slot = self.sparse.partition_point(|&(f, _)| f <= fp.0);
        if slot == 0 {
            return Ok(None); // fp sorts before the first record
        }
        let start = self.sparse[slot - 1].1;
        let end = self
            .sparse
            .get(slot)
            .map_or(self.off_sparse - self.off_records, |&(_, off)| off);
        let mut block = vec![0u8; (end - start) as usize];
        {
            let mut file = self.file.lock().expect("snapshot file poisoned");
            file.seek(SeekFrom::Start(self.off_records + start))?;
            file.read_exact(&mut block)?;
        }
        let mut s = Slice::new(&block);
        while !s.done() {
            let rec = get_record(&mut s)?;
            if rec.fingerprint == fp {
                return Ok(Some(rec));
            }
            if rec.fingerprint > fp {
                break; // sorted: passed where it would be
            }
        }
        Ok(None)
    }

    /// Loads the full code section: `(hash, idx, code, evidence)` in
    /// (hash, idx) order. Only called on the newest snapshot at open.
    pub fn load_codes(&self) -> io::Result<Vec<CodeRow>> {
        let raw = {
            let mut file = self.file.lock().expect("snapshot file poisoned");
            read_section(&mut file, self.off_codes, self.off_dims)?
        };
        let mut s = Slice::new(&raw);
        let n = s.u32()? as usize;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let hash = s.u64()?;
            let idx = s.u32()?;
            let code = get_code_rows(&mut s)?;
            let n_fps = s.u32()? as usize;
            let mut fps = Vec::with_capacity(n_fps.min(4096));
            for _ in 0..n_fps {
                fps.push(Fingerprint(s.u128()?));
            }
            out.push((hash, idx, code, fps));
        }
        Ok(out)
    }

    /// Loads the persisted dims runs. Only called on the newest snapshot.
    pub fn load_dims(&self) -> io::Result<Vec<DimsRun>> {
        let raw = {
            let mut file = self.file.lock().expect("snapshot file poisoned");
            read_section(&mut file, self.off_dims, self.off_records)?
        };
        let mut s = Slice::new(&raw);
        let n = s.u32()? as usize;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let nk = (s.u32()? as usize, s.u32()? as usize);
            let len = s.u32()? as usize;
            let mut run = Vec::with_capacity(len.min(1 << 20));
            for _ in 0..len {
                run.push((s.u64()?, s.u32()?));
            }
            out.push((nk, run));
        }
        Ok(out)
    }

    /// A sequential iterator over every record, in fingerprint order, on
    /// its own file handle — used by compaction merges.
    pub fn iter_records(&self) -> io::Result<RecordIter> {
        let mut file = File::open(&self.path)?;
        file.seek(SeekFrom::Start(self.off_records))?;
        Ok(RecordIter {
            reader: BufReader::new(file),
            remaining: self.record_count,
        })
    }
}

fn read_section(file: &mut File, start: u64, end: u64) -> io::Result<Vec<u8>> {
    let mut buf = vec![0u8; (end.saturating_sub(start)) as usize];
    file.seek(SeekFrom::Start(start))?;
    file.read_exact(&mut buf)?;
    Ok(buf)
}

fn read_bloom(file: &mut File, start: u64, end: u64) -> io::Result<Bloom> {
    let raw = read_section(file, start, end)?;
    let mut s = Slice::new(&raw);
    let nbits = s.u64()?;
    let bits = s.take((nbits / 8) as usize)?.to_vec();
    if nbits == 0 || nbits % 8 != 0 {
        return Err(corrupt("bloom size"));
    }
    Ok(Bloom { nbits, bits })
}

/// See [`Snapshot::iter_records`].
pub struct RecordIter {
    reader: BufReader<File>,
    remaining: u64,
}

impl Iterator for RecordIter {
    type Item = io::Result<SnapRecord>;

    fn next(&mut self) -> Option<io::Result<SnapRecord>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(read_record_stream(&mut self.reader))
    }
}

fn read_record_stream(r: &mut impl Read) -> io::Result<SnapRecord> {
    let mut fixed = [0u8; 16 + 2];
    r.read_exact(&mut fixed)?;
    let fingerprint = Fingerprint(u128::from_le_bytes(fixed[..16].try_into().unwrap()));
    let tenant_len = u16::from_le_bytes(fixed[16..].try_into().unwrap()) as usize;
    let mut tenant = vec![0u8; tenant_len];
    r.read_exact(&mut tenant)?;
    let tenant = String::from_utf8(tenant).map_err(|_| corrupt("tenant not utf-8"))?;
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    let outcome = match tag[0] {
        format::OUTCOME_UNIQUE => {
            let mut b = [0u8; 12];
            r.read_exact(&mut b)?;
            LineOutcome::Unique {
                hash: u64::from_le_bytes(b[..8].try_into().unwrap()),
                idx: u32::from_le_bytes(b[8..].try_into().unwrap()),
            }
        }
        format::OUTCOME_AMBIGUOUS => {
            let mut b = [0u8; 9];
            r.read_exact(&mut b)?;
            LineOutcome::Ambiguous {
                count: u64::from_le_bytes(b[..8].try_into().unwrap()) as usize,
                truncated: b[8] != 0,
            }
        }
        format::OUTCOME_INCONSISTENT => LineOutcome::Inconsistent,
        _ => return Err(corrupt("outcome tag")),
    };
    Ok(SnapRecord {
        fingerprint,
        tenant,
        outcome,
    })
}
