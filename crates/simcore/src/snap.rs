//! Versioned, dependency-free binary snapshots of simulation state.
//!
//! A snapshot is a byte buffer with a fixed envelope:
//!
//! ```text
//! "SNAP" | version: u32 | body … | "ENDS" | fnv64(everything before): u64
//! ```
//!
//! The body is a sequence of primitive writes produced by [`SnapWriter`] and
//! consumed in the same order by [`SnapReader`]. Writers group state into
//! *named sections* ([`SnapWriter::section`]): a section is a tag byte plus
//! the section name, verified on read, so a reader that drifts out of sync
//! fails with a [`SnapError::BadSection`] naming both sides instead of
//! silently mis-interpreting bytes. Multi-byte integers are little-endian;
//! `f64` travels as its IEEE-754 bit pattern ([`f64::to_bits`]) so
//! round-trips are bit-exact; `u128` travels as two `u64` halves.
//!
//! Compatibility policy: the format is versioned, not self-describing. Any
//! layout change bumps [`SNAP_VERSION`] and old snapshots are *rejected*
//! (never migrated): a snapshot that lies about state is worse than no
//! snapshot. Truncated or bit-flipped files fail the checksum or section
//! checks with a diagnostic — a corrupt snapshot must never silently resume.
//!
//! State types register by implementing [`Snap`] next to their definition
//! (so private fields stay private), or — when a type is rebuilt from
//! configuration and only its mutable part travels — by exposing
//! `snap_save`/`snap_restore` methods that write into a [`SnapWriter`].
//! The `simlint` D5 rule flags sim-state containers in files that do
//! neither.
//!
//! Every codec names every field of its type, so the compiler checks that
//! none is forgotten. A struct whose codec writes each field in turn
//! derives it from one ordered field list with [`snap_fields!`](crate::snap_fields).
//! A hand-written codec — one that validates its input, or skips
//! configuration — opens `snap_save` with a `let Self { … } = self;` that
//! has no `..`, binds the config and derived fields as `field: _`, and
//! commits a restore through the same kind of pattern: a field added to
//! the struct but not to the pattern is a compile error, and a field
//! bound but never written or read is an unused variable, which the
//! workspace denies.

use crate::time::{SimDuration, SimTime};

/// Leading magic of every snapshot buffer.
pub const SNAP_MAGIC: [u8; 4] = *b"SNAP";
/// Current format version; bumped on any layout change.
pub const SNAP_VERSION: u32 = 2;
/// Magic separating the body from the checksum trailer.
const TRAILER_MAGIC: [u8; 4] = *b"ENDS";
/// Tag byte opening a named section.
const SECTION_TAG: u8 = 0xA5;

/// FNV-1a, 64-bit — the same dependency-free hash the golden tests use.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::default();
    h.write(bytes);
    h.finish()
}

/// Streaming [`fnv64`]: feeding the bytes in pieces gives the hash of their
/// concatenation. As a [`std::fmt::Write`] sink it hashes formatted text
/// without building the string.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    /// Feeds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything fed so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// Why a snapshot buffer was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer does not start with `"SNAP"`.
    BadMagic,
    /// The buffer was written by a different format version.
    BadVersion {
        /// Version found in the buffer.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// The buffer ends before the data it promises.
    Truncated {
        /// Read position at which bytes ran out.
        at: usize,
        /// Bytes the reader needed there.
        wanted: usize,
    },
    /// The trailer checksum does not match the buffer contents.
    ChecksumMismatch {
        /// Checksum stored in the trailer.
        stored: u64,
        /// Checksum recomputed over the buffer.
        computed: u64,
    },
    /// The reader expected one named section and found another (or none).
    BadSection {
        /// Section the reader asked for.
        expected: String,
        /// Section tag actually present.
        found: String,
    },
    /// A decoded value is structurally impossible (bad enum tag, length
    /// overflow, non-UTF-8 name).
    Corrupt(String),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::BadMagic => f.write_str("not a snapshot: bad magic"),
            SnapError::BadVersion { found, expected } => write!(
                f,
                "snapshot version {found} is not readable by this build (expects {expected}); \
                 re-create the snapshot"
            ),
            SnapError::Truncated { at, wanted } => {
                write!(
                    f,
                    "snapshot truncated: needed {wanted} byte(s) at offset {at}"
                )
            }
            SnapError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: trailer says {stored:#018x}, contents hash to \
                 {computed:#018x}"
            ),
            SnapError::BadSection { expected, found } => write!(
                f,
                "snapshot out of sync: expected section {expected:?}, found {found:?}"
            ),
            SnapError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Serializes state into the snapshot envelope.
#[derive(Debug)]
pub struct SnapWriter {
    buf: Vec<u8>,
    /// Opened by [`SnapWriter::bare`]: an in-RAM rollback point, not a
    /// durable snapshot.
    bare: bool,
}

impl Default for SnapWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapWriter {
    /// A writer with the magic and version already emitted.
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(&SNAP_MAGIC);
        buf.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        SnapWriter { buf, bare: false }
    }

    /// A *bare* writer for in-RAM micro-snapshots: no magic, no version, no
    /// trailer. The caller hands back the buffer from the previous cycle and
    /// the writer clears it, keeping the allocation — after the first
    /// snapshot warms the buffer up, a save cycle performs no heap
    /// allocation in this layer. Close with [`SnapWriter::into_bare`];
    /// reopen with [`SnapReader::bare`].
    ///
    /// A bare buffer is a *rollback point*, which need not be a copy of
    /// state. It never leaves RAM and carries no checksum or version. An
    /// object may write less than its full state into it: `loadgen::ClosedLoop` writes its
    /// scalars and a journal mark, then records an undo entry for every
    /// later change to its user table. Hence the contract:
    ///
    /// - a bare buffer restores only into the object that wrote it (or a
    ///   clone taken after the write);
    /// - only the object's latest point restores: writing a new bare
    ///   snapshot of the object retires the previous one;
    /// - the latest point may be restored any number of times.
    ///
    /// Restoring a retired point, or another object's, must fail with
    /// [`SnapError::Corrupt`] rather than resume from the wrong state. Objects
    /// that write a full copy satisfy the contract trivially. Durable
    /// snapshots ([`SnapWriter::new`]) keep the full byte layout. The
    /// speculative-rollback path in `microsvc::shard` is the one user.
    pub fn bare(mut buf: Vec<u8>) -> Self {
        buf.clear();
        SnapWriter { buf, bare: true }
    }

    /// Whether this writer was opened with [`SnapWriter::bare`] — that is,
    /// whether objects may write a rollback point instead of their state.
    #[inline]
    pub fn is_bare(&self) -> bool {
        self.bare
    }

    /// Closes a [`SnapWriter::bare`] writer: returns the raw body with no
    /// trailer and no checksum, ready for [`SnapReader::bare`].
    pub fn into_bare(self) -> Vec<u8> {
        self.buf
    }

    /// Opens a named section; [`SnapReader::section`] verifies the name.
    pub fn section(&mut self, name: &str) {
        self.buf.push(SECTION_TAG);
        self.str(name);
    }

    /// Writes one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`, little-endian.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u128` as two little-endian `u64` halves (low, high).
    #[inline]
    pub fn u128(&mut self, v: u128) {
        self.u64(v as u64);
        self.u64((v >> 64) as u64);
    }

    /// Writes a `usize` as `u64`.
    #[inline]
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` as its bit pattern — bit-exact round-trips, NaNs and
    /// signed zeros included.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a `bool` as one byte.
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Writes a length-framed `u64` slice in one pass — byte-identical to
    /// `Vec<u64>::save`, at memory speed instead of one push per element.
    pub fn u64s(&mut self, v: &[u64]) {
        self.usize(v.len());
        self.buf.extend(v.iter().flat_map(|x| x.to_le_bytes()));
    }

    /// Writes a length-framed `u32` slice in one pass — byte-identical to
    /// `Vec<u32>::save`.
    pub fn u32s(&mut self, v: &[u32]) {
        self.usize(v.len());
        self.buf.extend(v.iter().flat_map(|x| x.to_le_bytes()));
    }

    /// [`SnapWriter::u32s`] of the `len` values `items` yields, without
    /// collecting them first. Each value lands in a pre-sized slot, so an
    /// iterator that is not a plain slice walk (a bitmask, say) still
    /// streams without a capacity check per byte.
    ///
    /// # Panics
    ///
    /// Panics if `items` does not yield exactly `len` values.
    pub fn u32s_iter(&mut self, len: usize, items: impl IntoIterator<Item = u32>) {
        self.usize(len);
        let start = self.buf.len();
        self.buf.resize(start + len * 4, 0);
        let mut slots = self.buf[start..].chunks_exact_mut(4);
        items.into_iter().for_each(|x| {
            let dst = slots.next().expect("u32s_iter: more items than len");
            dst.copy_from_slice(&x.to_le_bytes());
        });
        assert!(slots.next().is_none(), "u32s_iter: fewer items than len");
    }

    /// Writes a length-framed byte string.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Writes a length-framed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Closes the envelope: appends the trailer magic and the FNV-64
    /// checksum of everything written so far.
    pub fn finish(mut self) -> Vec<u8> {
        self.buf.extend_from_slice(&TRAILER_MAGIC);
        let checksum = fnv64(&self.buf);
        self.buf.extend_from_slice(&checksum.to_le_bytes());
        self.buf
    }
}

/// Deserializes state from a snapshot buffer, after validating the envelope.
#[derive(Debug)]
pub struct SnapReader<'a> {
    /// The body: everything between the version and the trailer magic.
    buf: &'a [u8],
    pos: usize,
    /// Opened by [`SnapReader::bare`]: the buffer is a rollback point.
    bare: bool,
}

impl<'a> SnapReader<'a> {
    /// Validates magic, version, and checksum, and positions the reader at
    /// the start of the body.
    pub fn new(buf: &'a [u8]) -> Result<Self, SnapError> {
        // Envelope floor: magic + version + trailer magic + checksum.
        if buf.len() < 4 {
            return Err(SnapError::BadMagic);
        }
        if buf[..4] != SNAP_MAGIC {
            return Err(SnapError::BadMagic);
        }
        if buf.len() < 8 {
            return Err(SnapError::Truncated { at: 4, wanted: 4 });
        }
        let version = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
        if version != SNAP_VERSION {
            return Err(SnapError::BadVersion {
                found: version,
                expected: SNAP_VERSION,
            });
        }
        if buf.len() < 8 + 12 {
            return Err(SnapError::Truncated {
                at: buf.len(),
                wanted: 8 + 12 - buf.len(),
            });
        }
        let trailer_at = buf.len() - 12;
        if buf[trailer_at..trailer_at + 4] != TRAILER_MAGIC {
            return Err(SnapError::Corrupt("trailer magic missing".into()));
        }
        let stored = u64::from_le_bytes(buf[trailer_at + 4..].try_into().expect("8 bytes"));
        let computed = fnv64(&buf[..trailer_at + 4]);
        if stored != computed {
            return Err(SnapError::ChecksumMismatch { stored, computed });
        }
        Ok(SnapReader {
            buf: &buf[..trailer_at],
            pos: 8,
            bare: false,
        })
    }

    /// A reader over a [`SnapWriter::bare`] buffer: no envelope to validate,
    /// the whole slice is the body. The usual corruption defenses (checksum,
    /// version) are intentionally absent — bare buffers are process-local
    /// rollback points for the speculative fast path, written and read
    /// within one run. The rollback-point contract on [`SnapWriter::bare`]
    /// applies: hand the reader only the latest bare buffer written by the
    /// object being restored.
    pub fn bare(buf: &'a [u8]) -> Self {
        SnapReader {
            buf,
            pos: 0,
            bare: true,
        }
    }

    /// Whether this reader was opened with [`SnapReader::bare`] — that is,
    /// whether it holds a rollback point rather than a durable snapshot.
    #[inline]
    pub fn is_bare(&self) -> bool {
        self.bare
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        // `pos <= buf.len()` always holds, so this cannot overflow even for
        // an absurd `n` decoded from a corrupt length.
        if n > self.buf.len() - self.pos {
            return Err(SnapError::Truncated {
                at: self.pos,
                wanted: n,
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Verifies that the next item is the named section. A match allocates
    /// nothing, so restores can check sections on their hot path.
    pub fn section(&mut self, name: &str) -> Result<(), SnapError> {
        let bad = |found: String| SnapError::BadSection {
            expected: name.to_string(),
            found,
        };
        let tag = self.u8().map_err(|_| bad("<end of data>".into()))?;
        if tag != SECTION_TAG {
            return Err(bad(format!("<non-section byte {tag:#04x}>")));
        }
        let found = self.bytes()?;
        if found != name.as_bytes() {
            return Err(bad(String::from_utf8_lossy(found).into_owned()));
        }
        Ok(())
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a `u128` written by [`SnapWriter::u128`].
    #[inline]
    pub fn u128(&mut self) -> Result<u128, SnapError> {
        let lo = self.u64()?;
        let hi = self.u64()?;
        Ok(u128::from(lo) | (u128::from(hi) << 64))
    }

    /// Reads a `usize` written as `u64`.
    #[inline]
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::Corrupt(format!("usize overflow: {v}")))
    }

    /// Reads the length of a sequence whose items take at least one byte
    /// each, checked against the bytes left: a corrupt length fails here,
    /// before the caller reserves room for it.
    pub fn checked_len(&mut self) -> Result<usize, SnapError> {
        let len = self.usize()?;
        if len > self.buf.len() - self.pos {
            return Err(SnapError::Truncated {
                at: self.pos,
                wanted: len,
            });
        }
        Ok(len)
    }

    /// Reads an `f64` bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool`.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapError::Corrupt(format!("bad bool byte {other:#04x}"))),
        }
    }

    /// Takes the body of a length-framed slice of `width`-byte items,
    /// failing — before reserving anything — when the byte count overflows
    /// or runs past the buffer.
    fn take_items(&mut self, width: usize) -> Result<&'a [u8], SnapError> {
        let len = self.usize()?;
        let n = len
            .checked_mul(width)
            .ok_or_else(|| SnapError::Corrupt(format!("slice length overflow: {len}")))?;
        self.take(n)
    }

    /// Reads a slice written by [`SnapWriter::u64s`] (or `Vec<u64>::save`)
    /// in one pass; the result holds exactly its elements.
    pub fn u64s(&mut self) -> Result<Vec<u64>, SnapError> {
        let raw = self.take_items(8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8")))
            .collect())
    }

    /// Reads a slice written by [`SnapWriter::u32s`] (or `Vec<u32>::save`)
    /// in one pass; the result holds exactly its elements.
    pub fn u32s(&mut self) -> Result<Vec<u32>, SnapError> {
        Ok(self.u32s_iter()?.collect())
    }

    /// [`SnapReader::u32s`] without the `Vec`: the whole slice is checked
    /// against the buffer up front, then decoded lazily as it is iterated.
    pub fn u32s_iter(
        &mut self,
    ) -> Result<impl ExactSizeIterator<Item = u32> + Clone + 'a, SnapError> {
        let raw = self.take_items(4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4"))))
    }

    /// Reads a length-framed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let len = self.usize()?;
        self.take(len)
    }

    /// Reads a length-framed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec()).map_err(|_| SnapError::Corrupt("non-UTF-8 string".into()))
    }
}

/// A type that can round-trip through a snapshot.
///
/// Implement next to the type's definition so private fields stay private.
/// `load` must consume exactly the bytes `save` wrote.
pub trait Snap: Sized {
    /// Serializes `self` into the writer.
    fn save(&self, w: &mut SnapWriter);
    /// Deserializes a value, consuming exactly what [`save`](Snap::save)
    /// produced.
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

/// Implements [`Snap`] for a struct from one ordered list of its fields:
/// `save` writes each field with the field type's own codec, and `load`
/// reads them back in the same order, so the list is the wire layout.
/// `save` destructures the struct without `..` and `load` builds it as a
/// struct literal, so the list must name every field: one added to the
/// struct but not to the list fails to compile. A tuple struct lists its
/// fields by index.
///
/// When the missing field is private to another module, the `save` side
/// reports only "pattern requires `..` due to inaccessible fields" at the
/// invocation; the `load` side's `error[E0063]: missing field …` is the
/// message that names it.
///
/// ```
/// use simcore::{snap_fields, Snap, SnapReader, SnapWriter};
///
/// #[derive(Debug, PartialEq)]
/// struct Sample {
///     count: u64,
///     seen: Option<u32>,
/// }
/// snap_fields!(Sample { count, seen });
///
/// let mut w = SnapWriter::new();
/// Sample { count: 3, seen: Some(7) }.save(&mut w);
/// let bytes = w.finish();
/// let mut r = SnapReader::new(&bytes).unwrap();
/// assert_eq!(Sample::load(&mut r).unwrap(), Sample { count: 3, seen: Some(7) });
/// ```
#[macro_export]
macro_rules! snap_fields {
    ($ty:ident { $($field:tt),+ $(,)? }) => {
        impl $crate::snap::Snap for $ty {
            fn save(&self, w: &mut $crate::snap::SnapWriter) {
                let $ty { $($field: _),+ } = self;
                $($crate::snap::Snap::save(&self.$field, w);)+
            }

            fn load(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> ::core::result::Result<Self, $crate::snap::SnapError> {
                ::core::result::Result::Ok($ty {
                    $($field: $crate::snap::Snap::load(r)?),+
                })
            }
        }
    };
}

macro_rules! snap_prim {
    ($ty:ty, $write:ident, $read:ident) => {
        impl Snap for $ty {
            #[inline]
            fn save(&self, w: &mut SnapWriter) {
                w.$write(*self);
            }
            #[inline]
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                r.$read()
            }
        }
    };
}

snap_prim!(u8, u8, u8);
snap_prim!(u32, u32, u32);
snap_prim!(u64, u64, u64);
snap_prim!(u128, u128, u128);
snap_prim!(usize, usize, usize);
snap_prim!(f64, f64, f64);
snap_prim!(bool, bool, bool);

impl Snap for u16 {
    fn save(&self, w: &mut SnapWriter) {
        w.u32(u32::from(*self));
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let v = r.u32()?;
        u16::try_from(v).map_err(|_| SnapError::Corrupt(format!("u16 overflow: {v}")))
    }
}

impl Snap for SimTime {
    #[inline]
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.as_nanos());
    }
    #[inline]
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(SimTime::from_nanos(r.u64()?))
    }
}

impl Snap for SimDuration {
    #[inline]
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.as_nanos());
    }
    #[inline]
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(SimDuration::from_nanos(r.u64()?))
    }
}

impl<T: Snap> Snap for Option<T> {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            other => Err(SnapError::Corrupt(format!("bad Option tag {other:#04x}"))),
        }
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for item in self {
            item.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.checked_len()?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

/// Reloads a `Vec<T>` *in place*, reusing the destination's allocation.
///
/// Byte-compatible with [`Snap::load`] for `Vec<T>` (consumes exactly what
/// `Vec::save` wrote) but never shrinks or replaces the destination buffer:
/// capacity is monotone across calls. The speculative-rollback path restores
/// the same engine many times per run — with this helper the hot slabs
/// (jobs, requests, free lists) stop churning the allocator once the first
/// restore has warmed them up.
pub fn load_vec_into<T: Snap>(dst: &mut Vec<T>, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
    let len = r.checked_len()?;
    dst.clear();
    dst.reserve(len);
    for _ in 0..len {
        dst.push(T::load(r)?);
    }
    Ok(())
}

impl Snap for i64 {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(*self as u64);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(r.u64()? as i64)
    }
}

impl Snap for String {
    fn save(&self, w: &mut SnapWriter) {
        w.str(self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.str()
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.section("header");
        w.u64(42);
        w.f64(-0.0);
        w.u128(u128::MAX - 7);
        w.bool(true);
        w.section("body");
        vec![1u64, 2, 3].save(&mut w);
        Some(SimTime::from_nanos(9)).save(&mut w);
        w.str("hello");
        w.finish()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let buf = sample();
        let mut r = SnapReader::new(&buf).expect("valid");
        r.section("header").expect("header");
        assert_eq!(r.u64().unwrap(), 42);
        let z = r.f64().unwrap();
        assert_eq!(z.to_bits(), (-0.0f64).to_bits(), "signed zero preserved");
        assert_eq!(r.u128().unwrap(), u128::MAX - 7);
        assert!(r.bool().unwrap());
        r.section("body").expect("body");
        assert_eq!(Vec::<u64>::load(&mut r).unwrap(), vec![1, 2, 3]);
        assert_eq!(
            Option::<SimTime>::load(&mut r).unwrap(),
            Some(SimTime::from_nanos(9))
        );
        assert_eq!(r.str().unwrap(), "hello");
    }

    #[test]
    fn rewriting_a_loaded_snapshot_is_byte_stable() {
        let buf = sample();
        let mut r = SnapReader::new(&buf).expect("valid");
        r.section("header").unwrap();
        let a = r.u64().unwrap();
        let b = r.f64().unwrap();
        let c = r.u128().unwrap();
        let d = r.bool().unwrap();
        r.section("body").unwrap();
        let e = Vec::<u64>::load(&mut r).unwrap();
        let f = Option::<SimTime>::load(&mut r).unwrap();
        let g = r.str().unwrap();
        let mut w = SnapWriter::new();
        w.section("header");
        w.u64(a);
        w.f64(b);
        w.u128(c);
        w.bool(d);
        w.section("body");
        e.save(&mut w);
        f.save(&mut w);
        w.str(&g);
        assert_eq!(w.finish(), buf);
    }

    #[test]
    fn truncation_anywhere_is_rejected() {
        let buf = sample();
        for cut in 0..buf.len() {
            assert!(
                SnapReader::new(&buf[..cut]).is_err(),
                "truncation to {cut} bytes must not validate"
            );
        }
    }

    #[test]
    fn bit_flips_are_rejected() {
        let buf = sample();
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x10;
            assert!(
                SnapReader::new(&bad).is_err(),
                "flipping byte {i} must fail magic/version/checksum validation"
            );
        }
    }

    #[test]
    fn version_bump_is_rejected_with_diagnostic() {
        let mut buf = sample();
        let bumped = SNAP_VERSION + 1;
        buf[4..8].copy_from_slice(&bumped.to_le_bytes());
        match SnapReader::new(&buf) {
            Err(SnapError::BadVersion { found, expected }) => {
                assert_eq!(found, bumped);
                assert_eq!(expected, SNAP_VERSION);
            }
            other => panic!("expected BadVersion, got {other:?}"),
        }
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let mut buf = sample();
        buf[0] = b'X';
        assert!(matches!(SnapReader::new(&buf), Err(SnapError::BadMagic)));
    }

    #[test]
    fn section_mismatch_names_both_sides() {
        let buf = sample();
        let mut r = SnapReader::new(&buf).expect("valid");
        match r.section("trailer-state") {
            Err(SnapError::BadSection { expected, found }) => {
                assert_eq!(expected, "trailer-state");
                assert_eq!(found, "header");
            }
            other => panic!("expected BadSection, got {other:?}"),
        }
    }

    #[test]
    fn bare_round_trip_preserves_everything() {
        let mut w = SnapWriter::bare(Vec::new());
        assert!(w.is_bare() && !SnapWriter::new().is_bare());
        w.section("micro");
        w.u64(7);
        w.f64(-0.0);
        vec![5u64, 6].save(&mut w);
        let buf = w.into_bare();
        // No envelope: body starts at byte 0 and there is no trailer.
        assert_eq!(buf[0], SECTION_TAG);
        let mut r = SnapReader::bare(&buf);
        assert!(r.is_bare() && !SnapReader::new(&sample()).unwrap().is_bare());
        r.section("micro").expect("micro");
        assert_eq!(r.u64().unwrap(), 7);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(Vec::<u64>::load(&mut r).unwrap(), vec![5, 6]);
    }

    #[test]
    fn bare_writer_reuses_the_buffer_allocation() {
        let mut buf = Vec::new();
        let mut peak = 0;
        for cycle in 0..8 {
            let mut w = SnapWriter::bare(buf);
            w.section("cycle");
            for i in 0..256u64 {
                w.u64(i * cycle);
            }
            buf = w.into_bare();
            if cycle == 1 {
                peak = buf.capacity();
            }
            if cycle > 1 {
                assert_eq!(
                    buf.capacity(),
                    peak,
                    "same-sized cycles after warm-up must not reallocate"
                );
            }
        }
    }

    #[test]
    fn load_vec_into_matches_vec_load_and_keeps_capacity() {
        let mut w = SnapWriter::bare(Vec::new());
        vec![3u64, 1, 4, 1, 5].save(&mut w);
        vec![9u64, 2, 6].save(&mut w);
        let buf = w.into_bare();

        let mut r = SnapReader::bare(&buf);
        let mut dst: Vec<u64> = Vec::with_capacity(64);
        load_vec_into(&mut dst, &mut r).expect("first");
        assert_eq!(dst, vec![3, 1, 4, 1, 5]);
        assert!(dst.capacity() >= 64, "capacity must never shrink");
        load_vec_into(&mut dst, &mut r).expect("second");
        assert_eq!(dst, vec![9, 2, 6]);
        assert!(dst.capacity() >= 64, "capacity must never shrink");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn bulk_writers_emit_exactly_the_vec_save_bytes(
            wide in proptest::collection::vec(proptest::arbitrary::any::<u64>(), 0..300),
            narrow in proptest::collection::vec(proptest::arbitrary::any::<u32>(), 0..300),
        ) {
            let mut bulk = SnapWriter::new();
            bulk.u64s(&wide);
            bulk.u32s(&narrow);
            let mut each = SnapWriter::new();
            wide.save(&mut each);
            narrow.save(&mut each);
            let bytes = bulk.finish();
            proptest::prop_assert_eq!(&bytes, &each.finish());

            let mut r = SnapReader::new(&bytes).expect("valid");
            proptest::prop_assert_eq!(r.u64s().unwrap(), wide.clone());
            proptest::prop_assert_eq!(r.u32s().unwrap(), narrow.clone());
            let mut r = SnapReader::new(&bytes).expect("valid");
            proptest::prop_assert_eq!(Vec::<u64>::load(&mut r).unwrap(), wide.clone());
            proptest::prop_assert_eq!(Vec::<u32>::load(&mut r).unwrap(), narrow);
        }
    }

    #[test]
    fn bulk_readers_reject_truncation_anywhere() {
        let mut w = SnapWriter::bare(Vec::new());
        w.u64s(&[1, 2, 3]);
        let wide = w.into_bare();
        let mut w = SnapWriter::bare(Vec::new());
        w.u32s(&[4, 5, 6]);
        let narrow = w.into_bare();
        for cut in 0..wide.len() {
            let got = SnapReader::bare(&wide[..cut]).u64s();
            assert!(
                matches!(got, Err(SnapError::Truncated { .. })),
                "{cut}: {got:?}"
            );
        }
        for cut in 0..narrow.len() {
            let got = SnapReader::bare(&narrow[..cut]).u32s();
            assert!(
                matches!(got, Err(SnapError::Truncated { .. })),
                "{cut}: {got:?}"
            );
        }
    }

    #[test]
    fn bulk_readers_reject_absurd_lengths_without_reserving() {
        // A byte count that overflows `usize` is corrupt, not a panic.
        let mut w = SnapWriter::bare(Vec::new());
        w.u64(u64::MAX);
        w.u64(7);
        let buf = w.into_bare();
        assert!(matches!(
            SnapReader::bare(&buf).u64s(),
            Err(SnapError::Corrupt(_))
        ));
        assert!(matches!(
            SnapReader::bare(&buf).u32s(),
            Err(SnapError::Corrupt(_))
        ));
        // A length that fits but promises terabytes fails on the bytes that
        // are there; reserving it first would abort the process instead.
        let mut w = SnapWriter::bare(Vec::new());
        w.u64(1 << 40);
        w.u64(7);
        let buf = w.into_bare();
        assert!(matches!(
            SnapReader::bare(&buf).u64s(),
            Err(SnapError::Truncated { .. })
        ));
        assert!(matches!(
            SnapReader::bare(&buf).u32s(),
            Err(SnapError::Truncated { .. })
        ));
        assert!(matches!(
            Vec::<u64>::load(&mut SnapReader::bare(&buf)),
            Err(SnapError::Truncated { .. })
        ));
        // The same guard covers byte strings.
        assert!(matches!(
            SnapReader::bare(&u64::MAX.to_le_bytes()).bytes(),
            Err(SnapError::Truncated { .. })
        ));
    }

    #[test]
    fn errors_display_a_diagnostic() {
        let e = SnapError::BadVersion {
            found: 9,
            expected: SNAP_VERSION,
        };
        assert!(e.to_string().contains("version 9"));
        let e = SnapError::Truncated { at: 3, wanted: 8 };
        assert!(e.to_string().contains("truncated"));
    }
}
