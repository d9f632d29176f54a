//! Crash-safe, checksummed checkpoints for training state.
//!
//! A checkpoint captures everything a `train_*` loop needs to continue a
//! run **bitwise identically** to an uninterrupted one: the network (all
//! weight and bias values at exact `f32` bit patterns), the optimizer
//! (hyperparameters, Adam's step clock, and every per-parameter state
//! vector), and the training cursor (epoch, batch, shuffle seed, the
//! partial epoch-loss accumulator, and the per-epoch history so far).
//! The RNG needs no serialized state: the loops consume randomness only
//! through one `shuffle` per epoch, so the cursor plus the seed lets the
//! resume path *replay* the shuffles and land on the exact generator
//! state (see `train`).
//!
//! ## Wire format (version 1, little-endian)
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ magic  "RXNCKPT\x01"                                  8 bytes │
//! │ version u32                                                  │
//! │ section count u32 (= 3)                                      │
//! ├── section × 3: NET, OPT, PROG ───────────────────────────────┤
//! │   tag u32 · payload length u64 · payload · CRC32(payload)    │
//! ├──────────────────────────────────────────────────────────────┤
//! │ footer: CRC32 over every preceding byte               4 bytes │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! Sparse layers exploit the constant-degree ELLPACK layout: a
//! RadiX/X-Net layer stores `degree` once plus `nnz` column ids and
//! values — no `indptr` array at all (`indptr[i] = i·degree` is implied).
//! Irregular CSR layers and dense layers have their own records.
//!
//! Values and per-parameter optimizer state are written in CSR order
//! whatever a layer's in-memory storage: a RadiX layer kept as its
//! diagonals (`radix_sparse::PreparedWeights::cyclic`) holds its
//! weights, gradients and optimizer state in diagonal order, so the
//! encoder writes its CSR rebuild and permutes each weight state vector
//! through the layer's fixed map, and the decoder permutes back. The
//! bytes are the same as for the CSR-stored layer, and files stay
//! interchangeable across storages.
//!
//! ## Atomic write protocol
//!
//! [`save`] encodes to memory, writes `<name>.tmp` in the target
//! directory, fsyncs the file, atomically renames it over the final
//! path, then fsyncs the directory. A crash at any point leaves either
//! the old checkpoint or the new one — never a torn hybrid — and a stale
//! `.tmp` from a torn write is invisible to recovery (the
//! [`Checkpointer`] only considers `ckpt-NNNNNNNN.radix` names).
//!
//! ## Hostile bytes
//!
//! [`decode`] never panics on malformed input: every length is bounds-
//! checked against the remaining buffer before any allocation, every
//! structural invariant (index ordering, shape chaining, optimizer state
//! lengths) is validated, and every failure is a typed
//! [`CheckpointError`]. `tests/checkpoint.rs` fuzzes truncations and bit
//! flips to pin this down.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use radix_sparse::{CsrMatrix, DenseMatrix, PreparedWeights};

use crate::activation::Activation;
use crate::fault::{FaultInjector, WriteFault, INJECTED_PANIC_MSG};
use crate::layer::{DenseLinear, Layer, SparseLinear};
use crate::loss::Loss;
use crate::network::Network;
use crate::optimizer::Optimizer;
use crate::train::History;

/// File magic: "RXNCKPT" plus a format-generation byte.
const MAGIC: &[u8; 8] = b"RXNCKPT\x01";
/// Current (and only) wire-format version.
pub const FORMAT_VERSION: u32 = 1;

const TAG_NET: u32 = 1;
const TAG_OPT: u32 = 2;
const TAG_PROG: u32 = 3;

const KIND_SPARSE_ELL: u8 = 0;
const KIND_SPARSE_CSR: u8 = 1;
const KIND_DENSE: u8 = 2;

/// Why a checkpoint could not be written, read, or resumed from.
#[derive(Debug)]
pub enum CheckpointError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The file's format version is newer than this build understands.
    UnsupportedVersion {
        /// Version found in the file.
        got: u32,
        /// Newest version this build can read.
        supported: u32,
    },
    /// The buffer ended before a declared field — a torn or truncated
    /// file.
    Truncated {
        /// Byte offset at which the read was attempted.
        offset: usize,
        /// Bytes the field needed.
        needed: usize,
        /// Total bytes available.
        len: usize,
    },
    /// A section (or the whole-file footer) failed its CRC32 check.
    ChecksumMismatch {
        /// Which checksum failed (`"NET"`, `"OPT"`, `"PROG"`, `"footer"`).
        section: &'static str,
    },
    /// A decoded matrix violates a shape invariant (layers that do not
    /// chain, bias length vs layer width, …).
    ShapeMismatch {
        /// Human-readable description of the violated invariant.
        detail: String,
    },
    /// An ELLPACK record's implied `nnz = nrows · degree` does not match
    /// its payload.
    DegreeMismatch {
        /// Zero-based layer index.
        layer: usize,
        /// Declared row degree.
        degree: usize,
        /// Values actually present.
        nnz: usize,
    },
    /// Any other structural violation in the byte stream (bad enum
    /// discriminant, out-of-range index, non-canonical section order…).
    Malformed {
        /// Human-readable description.
        detail: String,
    },
    /// The checkpoint is internally valid but cannot resume the run it
    /// was offered to (different architecture, loss, or shuffle seed).
    Incompatible {
        /// Human-readable description of the mismatch.
        detail: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::UnsupportedVersion { got, supported } => {
                write!(
                    f,
                    "checkpoint version {got} unsupported (newest readable: {supported})"
                )
            }
            CheckpointError::Truncated {
                offset,
                needed,
                len,
            } => write!(
                f,
                "checkpoint truncated: needed {needed} bytes at offset {offset}, file has {len}"
            ),
            CheckpointError::ChecksumMismatch { section } => {
                write!(f, "checkpoint {section} checksum mismatch (corrupt bytes)")
            }
            CheckpointError::ShapeMismatch { detail } => {
                write!(f, "checkpoint shape mismatch: {detail}")
            }
            CheckpointError::DegreeMismatch { layer, degree, nnz } => write!(
                f,
                "checkpoint layer {layer}: degree {degree} inconsistent with {nnz} stored values"
            ),
            CheckpointError::Malformed { detail } => {
                write!(f, "malformed checkpoint: {detail}")
            }
            CheckpointError::Incompatible { detail } => {
                write!(f, "checkpoint incompatible with this run: {detail}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// The training cursor and bookkeeping a resumed run restarts from.
///
/// Cursor semantics: epochs `0..epoch` are fully complete (their history
/// rows pushed, learning-rate decay applied), plus the first `batch`
/// mini-batches of epoch `epoch`. `batch > 0` implies epoch `epoch`'s
/// shuffle has already been drawn from the RNG.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainProgress {
    /// Epoch the cursor sits in.
    pub epoch: u64,
    /// Mini-batches of that epoch already applied.
    pub batch: u64,
    /// The run's shuffle seed (`TrainConfig::seed`) — resume refuses a
    /// checkpoint recorded under a different seed.
    pub seed: u64,
    /// Partial sum of the current epoch's per-batch losses (exact bits).
    pub epoch_loss: f32,
    /// Per-epoch history of all completed epochs.
    pub history: History,
}

/// A decoded checkpoint: network, optimizer, and training cursor.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The network at the cursor, every value at its exact bit pattern.
    pub net: Network,
    /// The optimizer at the cursor, including per-parameter state.
    pub opt: Optimizer,
    /// Where training stands.
    pub progress: TrainProgress,
}

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, poly 0xEDB88320) — implemented here
// because the build is offline; no external crate.
// ---------------------------------------------------------------------

/// Slice-by-8 tables: `CRC32_TABLES[0]` is the classic byte table, and
/// `CRC32_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes,
/// so eight table lookups advance the register by eight input bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1usize;
    while t < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC32 (IEEE) of `bytes` — the per-section and footer checksum.
/// Slice-by-8: eight bytes per step through eight table lookups, the same
/// value as the byte-at-a-time loop.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------
// Little-endian primitives.
// ---------------------------------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}
fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_f32(buf: &mut Vec<u8>, v: f32) {
    put_u32(buf, v.to_bits());
}
fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Bounds-checked cursor over untrusted bytes: every read is validated
/// against the remaining buffer *before* it happens (and before any
/// allocation is sized from a decoded length), so hostile input can
/// produce only typed errors, never a panic or an OOM.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < n {
            return Err(CheckpointError::Truncated {
                offset: self.pos,
                needed: n,
                len: self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f32(&mut self) -> Result<f32, CheckpointError> {
        Ok(f32::from_bits(self.u32()?))
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Validates that a declared element count is physically satisfiable
    /// by the remaining bytes (guarding `Vec` pre-sizing against decoded
    /// lengths like `u64::MAX`), returning it as `usize`.
    fn array_len(&self, count: u64, elem_size: usize) -> Result<usize, CheckpointError> {
        let count_usize = usize::try_from(count).map_err(|_| CheckpointError::Malformed {
            detail: format!("array length {count} exceeds address space"),
        })?;
        let bytes =
            count_usize
                .checked_mul(elem_size)
                .ok_or_else(|| CheckpointError::Malformed {
                    detail: format!("array length {count} overflows"),
                })?;
        if bytes > self.remaining() {
            return Err(CheckpointError::Truncated {
                offset: self.pos,
                needed: bytes,
                len: self.buf.len(),
            });
        }
        Ok(count_usize)
    }

    fn f32_vec(&mut self, count: u64) -> Result<Vec<f32>, CheckpointError> {
        let n = self.array_len(count, 4)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.f32()?);
        }
        Ok(v)
    }

    fn u32_index_vec(&mut self, count: u64) -> Result<Vec<usize>, CheckpointError> {
        let n = self.array_len(count, 4)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.u32()? as usize);
        }
        Ok(v)
    }
}

// ---------------------------------------------------------------------
// Encode.
// ---------------------------------------------------------------------

fn act_code(a: Activation) -> u8 {
    match a {
        Activation::Sigmoid => 0,
        Activation::Relu => 1,
        Activation::Tanh => 2,
        Activation::Identity => 3,
    }
}

fn act_from(code: u8) -> Result<Activation, CheckpointError> {
    Ok(match code {
        0 => Activation::Sigmoid,
        1 => Activation::Relu,
        2 => Activation::Tanh,
        3 => Activation::Identity,
        other => {
            return Err(CheckpointError::Malformed {
                detail: format!("unknown activation code {other}"),
            })
        }
    })
}

/// The prepared weights parameter `id` is the weight vector of, if it
/// belongs to a sparse layer — the one kind of state whose in-memory order
/// (the layer's storage order) can differ from the file's CSR order.
fn sparse_weights(net: &Network, id: usize) -> Option<&PreparedWeights<f32>> {
    match net.layers().get(id / 2) {
        Some(Layer::Sparse(s)) if id.is_multiple_of(2) => Some(s.prepared()),
        _ => None,
    }
}

fn encode_net(net: &Network, buf: &mut Vec<u8>) {
    put_u8(
        buf,
        match net.loss() {
            Loss::Mse => 0,
            Loss::SoftmaxCrossEntropy => 1,
        },
    );
    put_u32(buf, net.layers().len() as u32);
    for layer in net.layers() {
        match layer {
            Layer::Sparse(sl) => {
                let csr = sl.weights();
                put_u8(
                    buf,
                    if sl.prepared().degree().is_some() {
                        KIND_SPARSE_ELL
                    } else {
                        KIND_SPARSE_CSR
                    },
                );
                put_u8(buf, act_code(sl.activation()));
                put_u64(buf, csr.nrows() as u64);
                put_u64(buf, csr.ncols() as u64);
                if let Some(degree) = sl.prepared().degree() {
                    // ELLPACK: constant row degree, indptr implied.
                    put_u32(buf, degree as u32);
                } else {
                    put_u64(buf, csr.nnz() as u64);
                    for &p in csr.indptr() {
                        put_u64(buf, p as u64);
                    }
                }
                for &j in csr.indices() {
                    put_u32(buf, j as u32);
                }
                for &v in csr.data() {
                    put_f32(buf, v);
                }
                for &b in sl.bias() {
                    put_f32(buf, b);
                }
            }
            Layer::Dense(dl) => {
                put_u8(buf, KIND_DENSE);
                put_u8(buf, act_code(dl.activation()));
                let w = dl.weights();
                put_u64(buf, w.nrows() as u64);
                put_u64(buf, w.ncols() as u64);
                for &v in w.as_slice() {
                    put_f32(buf, v);
                }
                for &b in dl.bias() {
                    put_f32(buf, b);
                }
            }
        }
    }
}

/// Serializes one optimizer state table in deterministic (sorted
/// param-id) order, so identical states encode to identical bytes; a
/// sparse layer's weight state goes out in CSR order.
fn encode_state_table(table: &HashMap<usize, Vec<f32>>, net: &Network, buf: &mut Vec<u8>) {
    let mut ids: Vec<usize> = table.keys().copied().collect();
    ids.sort_unstable();
    put_u32(buf, ids.len() as u32);
    for id in ids {
        put_u32(buf, id as u32);
        let v = &table[&id];
        put_u64(buf, v.len() as u64);
        let v = match sparse_weights(net, id) {
            Some(w) if w.nnz() == v.len() => w.to_csr_order(v),
            _ => Cow::Borrowed(v.as_slice()),
        };
        for &x in v.iter() {
            put_f32(buf, x);
        }
    }
}

fn encode_opt(opt: &Optimizer, net: &Network, buf: &mut Vec<u8>) {
    match opt {
        Optimizer::Sgd { lr } => {
            put_u8(buf, 0);
            put_f32(buf, *lr);
        }
        Optimizer::Momentum { lr, mu, velocity } => {
            put_u8(buf, 1);
            put_f32(buf, *lr);
            put_f32(buf, *mu);
            encode_state_table(velocity, net, buf);
        }
        Optimizer::Adam {
            lr,
            beta1,
            beta2,
            eps,
            t,
            m,
            v,
        } => {
            put_u8(buf, 2);
            put_f32(buf, *lr);
            put_f32(buf, *beta1);
            put_f32(buf, *beta2);
            put_f32(buf, *eps);
            put_u32(buf, *t);
            encode_state_table(m, net, buf);
            encode_state_table(v, net, buf);
        }
    }
}

fn encode_progress(p: &TrainProgress, buf: &mut Vec<u8>) {
    put_u64(buf, p.epoch);
    put_u64(buf, p.batch);
    put_u64(buf, p.seed);
    put_f32(buf, p.epoch_loss);
    put_u32(buf, p.history.losses.len() as u32);
    for &l in &p.history.losses {
        put_f32(buf, l);
    }
    put_u32(buf, p.history.accuracies.len() as u32);
    for &a in &p.history.accuracies {
        put_f64(buf, a);
    }
}

/// Appends one framed section — tag, payload length, the payload `fill`
/// writes, its CRC — encoding the payload in place and patching its
/// length in afterwards.
fn put_section(out: &mut Vec<u8>, tag: u32, fill: impl FnOnce(&mut Vec<u8>)) {
    put_u32(out, tag);
    let len_at = out.len();
    put_u64(out, 0);
    let start = out.len();
    fill(out);
    let len = (out.len() - start) as u64;
    out[len_at..start].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&out[start..]);
    put_u32(out, crc);
}

/// About the encoded size: every parameter is a 4-byte value, a sparse
/// weight also a 4-byte column id, and each optimizer state table one
/// more 4-byte value per parameter; 4 KiB covers headers, per-row
/// `indptr` of irregular layers and the history.
fn encoded_size_hint(net: &Network, opt: &Optimizer) -> usize {
    let tables = match opt {
        Optimizer::Sgd { .. } => 0,
        Optimizer::Momentum { .. } => 1,
        Optimizer::Adam { .. } => 2,
    };
    net.num_params() * 4 * (2 + tables) + 4096
}

/// Encodes a checkpoint to its complete byte representation (sections,
/// per-section CRCs, whole-file footer). Identical inputs produce
/// identical bytes.
#[must_use]
pub fn encode(net: &Network, opt: &Optimizer, progress: &TrainProgress) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_size_hint(net, opt));
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    put_u32(&mut out, 3);
    put_section(&mut out, TAG_NET, |buf| encode_net(net, buf));
    put_section(&mut out, TAG_OPT, |buf| encode_opt(opt, net, buf));
    put_section(&mut out, TAG_PROG, |buf| encode_progress(progress, buf));
    let footer = crc32(&out);
    put_u32(&mut out, footer);
    out
}

// ---------------------------------------------------------------------
// Decode.
// ---------------------------------------------------------------------

/// Validates CSR structure the kernels rely on without rejecting stored
/// zero values (a trained weight may legitimately pass through 0.0, and
/// round-tripping must preserve exact bits either way).
fn validated_csr(
    layer: usize,
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    data: Vec<f32>,
) -> Result<CsrMatrix<f32>, CheckpointError> {
    if indptr.len() != nrows + 1 || indptr[0] != 0 || *indptr.last().unwrap() != indices.len() {
        return Err(CheckpointError::Malformed {
            detail: format!("layer {layer}: inconsistent indptr"),
        });
    }
    if indptr.windows(2).any(|w| w[1] < w[0]) {
        return Err(CheckpointError::Malformed {
            detail: format!("layer {layer}: indptr not monotone"),
        });
    }
    for r in 0..nrows {
        let row = &indices[indptr[r]..indptr[r + 1]];
        if row.windows(2).any(|w| w[1] <= w[0]) || row.last().is_some_and(|&j| j >= ncols) {
            return Err(CheckpointError::Malformed {
                detail: format!("layer {layer}: bad column indices in row {r}"),
            });
        }
    }
    Ok(CsrMatrix::from_parts_unchecked(
        nrows, ncols, indptr, indices, data,
    ))
}

fn decode_net(payload: &[u8]) -> Result<Network, CheckpointError> {
    let r = &mut Reader::new(payload);
    let loss = match r.u8()? {
        0 => Loss::Mse,
        1 => Loss::SoftmaxCrossEntropy,
        other => {
            return Err(CheckpointError::Malformed {
                detail: format!("unknown loss code {other}"),
            })
        }
    };
    let n_layers = r.u32()? as usize;
    if n_layers == 0 {
        return Err(CheckpointError::Malformed {
            detail: "network has zero layers".into(),
        });
    }
    let mut layers = Vec::with_capacity(n_layers.min(1024));
    let mut prev_out: Option<usize> = None;
    for li in 0..n_layers {
        let kind = r.u8()?;
        let act = act_from(r.u8()?)?;
        let nrows_raw = r.u64()?;
        let nrows = usize::try_from(nrows_raw).map_err(|_| CheckpointError::Malformed {
            detail: format!("layer {li}: row count {nrows_raw} exceeds address space"),
        })?;
        let ncols_raw = r.u64()?;
        let ncols = usize::try_from(ncols_raw).map_err(|_| CheckpointError::Malformed {
            detail: format!("layer {li}: column count {ncols_raw} exceeds address space"),
        })?;
        if let Some(p) = prev_out {
            if p != nrows {
                return Err(CheckpointError::ShapeMismatch {
                    detail: format!("layer {li} expects {nrows} inputs, previous layer emits {p}"),
                });
            }
        }
        prev_out = Some(ncols);
        let layer = match kind {
            KIND_SPARSE_ELL => {
                let degree = r.u32()? as usize;
                let nnz = nrows
                    .checked_mul(degree)
                    .ok_or(CheckpointError::DegreeMismatch {
                        layer: li,
                        degree,
                        nnz: usize::MAX,
                    })?;
                if degree > ncols {
                    return Err(CheckpointError::DegreeMismatch {
                        layer: li,
                        degree,
                        nnz,
                    });
                }
                let indices = r.u32_index_vec(nnz as u64)?;
                let data = r.f32_vec(nnz as u64)?;
                let indptr: Vec<usize> = (0..=nrows).map(|i| i * degree).collect();
                let csr = validated_csr(li, nrows, ncols, indptr, indices, data)?;
                let bias = r.f32_vec(ncols as u64)?;
                Layer::Sparse(SparseLinear::with_bias(csr, bias, act))
            }
            KIND_SPARSE_CSR => {
                let nnz = r.u64()?;
                let indptr_len = r.array_len((nrows as u64) + 1, 8)?;
                let mut indptr = Vec::with_capacity(indptr_len);
                for _ in 0..indptr_len {
                    let p = r.u64()?;
                    indptr.push(usize::try_from(p).map_err(|_| CheckpointError::Malformed {
                        detail: format!("layer {li}: indptr entry {p} exceeds address space"),
                    })?);
                }
                let indices = r.u32_index_vec(nnz)?;
                let data = r.f32_vec(nnz)?;
                let csr = validated_csr(li, nrows, ncols, indptr, indices, data)?;
                let bias = r.f32_vec(ncols as u64)?;
                Layer::Sparse(SparseLinear::with_bias(csr, bias, act))
            }
            KIND_DENSE => {
                let n = (nrows as u64).checked_mul(ncols as u64).ok_or_else(|| {
                    CheckpointError::Malformed {
                        detail: format!("layer {li}: dense size overflows"),
                    }
                })?;
                let data = r.f32_vec(n)?;
                let w = DenseMatrix::from_vec(nrows, ncols, data).map_err(|e| {
                    CheckpointError::Malformed {
                        detail: format!("layer {li}: {e}"),
                    }
                })?;
                let bias = r.f32_vec(ncols as u64)?;
                Layer::Dense(DenseLinear::with_bias(w, bias, act))
            }
            other => {
                return Err(CheckpointError::Malformed {
                    detail: format!("layer {li}: unknown layer kind {other}"),
                })
            }
        };
        layers.push(layer);
    }
    if r.remaining() != 0 {
        return Err(CheckpointError::Malformed {
            detail: format!("{} trailing bytes in NET section", r.remaining()),
        });
    }
    Ok(Network::new(layers, loss))
}

fn decode_state_table(
    r: &mut Reader<'_>,
    net: &Network,
) -> Result<HashMap<usize, Vec<f32>>, CheckpointError> {
    let n = r.u32()? as usize;
    let mut table = HashMap::with_capacity(n.min(4096));
    let mut prev: Option<usize> = None;
    for _ in 0..n {
        let id = r.u32()? as usize;
        // Sorted, unique ids are the canonical encoding; enforcing it
        // also validates the id range in one place.
        if prev.is_some_and(|p| id <= p) {
            return Err(CheckpointError::Malformed {
                detail: format!("optimizer state ids not strictly increasing at {id}"),
            });
        }
        prev = Some(id);
        let layer = id / 2;
        let Some(l) = net.layers().get(layer) else {
            return Err(CheckpointError::Malformed {
                detail: format!("optimizer state for nonexistent parameter {id}"),
            });
        };
        let (w_len, b_len) = l.param_lens();
        let expect = if id.is_multiple_of(2) { w_len } else { b_len };
        let len = r.u64()?;
        if len != expect as u64 {
            return Err(CheckpointError::ShapeMismatch {
                detail: format!(
                    "optimizer state for parameter {id} has {len} entries, layer needs {expect}"
                ),
            });
        }
        let v = r.f32_vec(len)?;
        // The file holds CSR order; keep the layer's storage order.
        let v = match sparse_weights(net, id) {
            Some(w) => w.from_csr_order(v),
            None => v,
        };
        table.insert(id, v);
    }
    Ok(table)
}

fn decode_opt(payload: &[u8], net: &Network) -> Result<Optimizer, CheckpointError> {
    let r = &mut Reader::new(payload);
    let opt = match r.u8()? {
        0 => Optimizer::Sgd { lr: r.f32()? },
        1 => {
            let lr = r.f32()?;
            let mu = r.f32()?;
            let velocity = decode_state_table(r, net)?;
            Optimizer::Momentum { lr, mu, velocity }
        }
        2 => {
            let lr = r.f32()?;
            let beta1 = r.f32()?;
            let beta2 = r.f32()?;
            let eps = r.f32()?;
            let t = r.u32()?;
            let m = decode_state_table(r, net)?;
            let v = decode_state_table(r, net)?;
            Optimizer::Adam {
                lr,
                beta1,
                beta2,
                eps,
                t,
                m,
                v,
            }
        }
        other => {
            return Err(CheckpointError::Malformed {
                detail: format!("unknown optimizer code {other}"),
            })
        }
    };
    if r.remaining() != 0 {
        return Err(CheckpointError::Malformed {
            detail: format!("{} trailing bytes in OPT section", r.remaining()),
        });
    }
    Ok(opt)
}

fn decode_progress(payload: &[u8]) -> Result<TrainProgress, CheckpointError> {
    let r = &mut Reader::new(payload);
    let epoch = r.u64()?;
    let batch = r.u64()?;
    let seed = r.u64()?;
    let epoch_loss = r.f32()?;
    let n_losses = r.u32()?;
    let mut history = History {
        losses: r.f32_vec(u64::from(n_losses))?,
        ..History::default()
    };
    let n_acc_raw = r.u32()?;
    let n_acc = r.array_len(u64::from(n_acc_raw), 8)?;
    history.accuracies.reserve_exact(n_acc);
    for _ in 0..n_acc {
        history.accuracies.push(r.f64()?);
    }
    if r.remaining() != 0 {
        return Err(CheckpointError::Malformed {
            detail: format!("{} trailing bytes in PROG section", r.remaining()),
        });
    }
    Ok(TrainProgress {
        epoch,
        batch,
        seed,
        epoch_loss,
        history,
    })
}

/// Decodes a checkpoint from bytes, validating magic, version, section
/// structure, per-section CRCs, the whole-file footer, and every
/// structural invariant of the payloads.
///
/// # Errors
/// Every malformation maps to a typed [`CheckpointError`]; this function
/// never panics on hostile input.
pub fn decode(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
    let r = &mut Reader::new(bytes);
    if r.take(MAGIC.len()).map_err(|_| CheckpointError::BadMagic)? != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(CheckpointError::UnsupportedVersion {
            got: version,
            supported: FORMAT_VERSION,
        });
    }
    let n_sections = r.u32()?;
    if n_sections != 3 {
        return Err(CheckpointError::Malformed {
            detail: format!("expected 3 sections, found {n_sections}"),
        });
    }
    let mut sections: Vec<(u32, &[u8])> = Vec::with_capacity(3);
    for (expected_tag, name) in [(TAG_NET, "NET"), (TAG_OPT, "OPT"), (TAG_PROG, "PROG")] {
        let tag = r.u32()?;
        if tag != expected_tag {
            return Err(CheckpointError::Malformed {
                detail: format!("expected section {name}, found tag {tag}"),
            });
        }
        let len_raw = r.u64()?;
        let len = r.array_len(len_raw, 1)?;
        let payload = r.take(len)?;
        let stored_crc = r.u32()?;
        if crc32(payload) != stored_crc {
            return Err(CheckpointError::ChecksumMismatch { section: name });
        }
        sections.push((tag, payload));
    }
    // Whole-file footer: CRC over everything before the final 4 bytes.
    let footer = r.u32()?;
    if r.remaining() != 0 {
        return Err(CheckpointError::Malformed {
            detail: format!("{} trailing bytes after footer", r.remaining()),
        });
    }
    if crc32(&bytes[..bytes.len() - 4]) != footer {
        return Err(CheckpointError::ChecksumMismatch { section: "footer" });
    }

    let net = decode_net(sections[0].1)?;
    let opt = decode_opt(sections[1].1, &net)?;
    let progress = decode_progress(sections[2].1)?;
    Ok(Checkpoint { net, opt, progress })
}

// ---------------------------------------------------------------------
// Filesystem layer: atomic write, generation store.
// ---------------------------------------------------------------------

fn tmp_path(path: &Path) -> PathBuf {
    path.with_extension("tmp")
}

/// Writes `bytes` to `path` via the atomic protocol: temp file in the
/// same directory, fsync, rename over the final name, fsync the
/// directory. A crash anywhere leaves either the old file or the new one.
fn write_atomic(path: &Path, bytes: &[u8], fault: WriteFault) -> Result<(), CheckpointError> {
    let tmp = tmp_path(path);
    let mut f = File::create(&tmp)?;
    if let WriteFault::TornCrash { keep } = fault {
        // Simulated crash mid-write: a prefix reaches the disk, the
        // rename never happens, and the stale temp file is left behind
        // for recovery to ignore.
        f.write_all(&bytes[..keep.min(bytes.len())])?;
        let _ = f.sync_all();
        drop(f);
        panic!("{INJECTED_PANIC_MSG}: torn write of {}", tmp.display());
    }
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        // Directory fsync makes the rename itself durable; best-effort
        // (some filesystems refuse opening directories).
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Saves a checkpoint to `path` via [`encode`] and the atomic write
/// protocol.
///
/// # Errors
/// Propagates filesystem errors as [`CheckpointError::Io`].
pub fn save(
    path: &Path,
    net: &Network,
    opt: &Optimizer,
    progress: &TrainProgress,
) -> Result<(), CheckpointError> {
    write_atomic(path, &encode(net, opt, progress), WriteFault::None)
}

/// Loads and fully validates a checkpoint from `path`.
///
/// # Errors
/// [`CheckpointError::Io`] on filesystem failure; the [`decode`] taxonomy
/// on malformed bytes.
pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
    decode(&fs::read(path)?)
}

/// A directory of numbered checkpoint generations
/// (`ckpt-00000001.radix`, `ckpt-00000002.radix`, …) with a retention
/// bound, periodic-save cadence, and fault hooks.
///
/// Recovery contract: [`Checkpointer::load_latest`] walks generations
/// newest-first and returns the first one that passes full validation —
/// a torn or bit-flipped newest generation falls back to the previous
/// good one, and stale `.tmp` files from torn writes are never
/// considered.
#[derive(Debug)]
pub struct Checkpointer {
    dir: PathBuf,
    every: usize,
    keep: usize,
    faults: FaultInjector,
    next_gen: u64,
}

/// Default mid-epoch save cadence, in batches (`RADIX_CKPT_EVERY`).
pub const DEFAULT_CKPT_EVERY: usize = 64;
/// Default generations kept on disk (`RADIX_CKPT_KEEP`). At least 2, so
/// one corrupt newest generation always leaves a fallback.
pub const DEFAULT_CKPT_KEEP: usize = 2;

impl Checkpointer {
    /// Opens (creating if needed) a checkpoint directory. Cadence and
    /// retention come from `RADIX_CKPT_EVERY` / `RADIX_CKPT_KEEP` (env),
    /// defaulting to [`DEFAULT_CKPT_EVERY`] / [`DEFAULT_CKPT_KEEP`]; no
    /// fault is injected. Builders override all three.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] if the directory cannot be created or
    /// scanned.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let parse = |name: &str| {
            std::env::var(name)
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
        };
        let mut ck = Checkpointer {
            dir,
            every: parse("RADIX_CKPT_EVERY").unwrap_or(DEFAULT_CKPT_EVERY),
            keep: parse("RADIX_CKPT_KEEP").unwrap_or(DEFAULT_CKPT_KEEP).max(1),
            faults: FaultInjector::inactive(),
            next_gen: 1,
        };
        ck.next_gen = ck.generations()?.last().copied().unwrap_or(0) + 1;
        Ok(ck)
    }

    /// Sets the mid-epoch save cadence in batches (`0` = only at epoch
    /// boundaries).
    #[must_use]
    pub fn with_every(mut self, every: usize) -> Self {
        self.every = every;
        self
    }

    /// Sets how many generations stay on disk (clamped to at least 1).
    #[must_use]
    pub fn with_keep(mut self, keep: usize) -> Self {
        self.keep = keep.max(1);
        self
    }

    /// Replaces the fault injector — the one way to inject training and
    /// checkpoint faults. An online session hands the same injector to
    /// its serving engine.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultInjector) -> Self {
        self.faults = faults;
        self
    }

    /// The checkpoint directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Mid-epoch save cadence in batches (`0` = epoch boundaries only).
    #[must_use]
    pub fn every(&self) -> usize {
        self.every
    }

    /// The fault injector driving this checkpointer's write hooks.
    #[must_use]
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    /// Path of generation `g`.
    #[must_use]
    pub fn generation_path(&self, g: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{g:08}.radix"))
    }

    /// Committed generation numbers, ascending. Only canonical
    /// `ckpt-NNNNNNNN.radix` names count — `.tmp` leftovers from torn
    /// writes are invisible here by construction.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] if the directory cannot be read.
    pub fn generations(&self) -> Result<Vec<u64>, CheckpointError> {
        let mut gens = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(num) = name
                .strip_prefix("ckpt-")
                .and_then(|r| r.strip_suffix(".radix"))
            {
                if num.len() == 8 {
                    if let Ok(g) = num.parse::<u64>() {
                        gens.push(g);
                    }
                }
            }
        }
        gens.sort_unstable();
        Ok(gens)
    }

    /// Writes the next generation atomically (running the fault hooks),
    /// then prunes generations beyond the retention bound. Returns the
    /// committed generation number.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] on filesystem failure.
    ///
    /// # Panics
    /// An injected torn-write fault panics mid-write by design (the
    /// simulated crash); see [`crate::fault`].
    pub fn save(
        &mut self,
        net: &Network,
        opt: &mut Optimizer,
        progress: &TrainProgress,
    ) -> Result<u64, CheckpointError> {
        let _ = &opt; // &mut keeps the call-site honest about exclusivity
        let gen = self.next_gen;
        let mut bytes = encode(net, opt, progress);
        let fault = self.faults.checkpoint_fault(gen, &mut bytes);
        write_atomic(&self.generation_path(gen), &bytes, fault)?;
        self.next_gen = gen + 1;
        let gens = self.generations()?;
        if gens.len() > self.keep {
            for &old in &gens[..gens.len() - self.keep] {
                let _ = fs::remove_file(self.generation_path(old));
            }
        }
        Ok(gen)
    }

    /// Loads the newest generation that passes full validation, falling
    /// back through older generations when the newest is torn, flipped,
    /// or otherwise malformed. `Ok(None)` when no valid generation
    /// exists.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] if the directory itself cannot be read —
    /// individual bad generations are skipped, not errors.
    pub fn load_latest(&self) -> Result<Option<(u64, Checkpoint)>, CheckpointError> {
        for &g in self.generations()?.iter().rev() {
            if let Ok(ck) = load(&self.generation_path(g)) {
                return Ok(Some((g, ck)));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time table loop `crc32` replaced: the oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC32_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_bytewise_at_every_short_length() {
        let bytes: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=64 {
            for start in 0..8.min(64 - len + 1) {
                let s = &bytes[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "len {len} start {start}");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn crc32_matches_bytewise_on_random_buffers(
            bytes in proptest::collection::vec(0u8..=255, 64..4096),
        ) {
            for len in 0..=64 {
                proptest::prop_assert_eq!(crc32(&bytes[..len]), crc32_bytewise(&bytes[..len]));
            }
            proptest::prop_assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
        }
    }
}
