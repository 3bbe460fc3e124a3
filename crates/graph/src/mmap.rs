//! Minimal in-tree `mmap(2)` / `flock(2)` bindings for the zero-copy
//! prepared-graph cache.
//!
//! The build environment is fully offline (see the workspace shims policy in
//! `Cargo.toml`), so instead of the `memmap2`/`fs2` crates this module binds
//! the three syscalls the cache needs directly through `extern "C"` — libc is
//! already linked by `std` on every supported platform. All `unsafe` in the
//! crate lives in this file; the rest of the workspace stays
//! `deny(unsafe_code)`-clean.
//!
//! Three exports:
//!
//! * [`MappedFile`] — a whole file mapped read-only (`PROT_READ`,
//!   `MAP_PRIVATE`), held behind an `Arc`. Opening takes a **shared**
//!   advisory `flock` on the file that lives as long as the mapping, which is
//!   how the cache GC knows a file is in use by a reader.
//! * [`MappedSlice`] — a typed `&[T]` view of a 64-byte-aligned region inside
//!   a [`MappedFile`]; the `Arc` keeps the mapping (and the reader lock)
//!   alive for as long as any slice exists.
//! * [`FileLock`] — an exclusive advisory `flock` with RAII release, used to
//!   serialize cache writers across processes.
//!
//! On non-Unix platforms [`MappedFile::open`] returns
//! [`io::ErrorKind::Unsupported`] (callers fall back to owned heap reads) and
//! [`FileLock`] degrades to a lock-free no-op, so the cache protocol still
//! works single-process.
#![allow(unsafe_code)]

use std::fs::File;
use std::io;
use std::marker::PhantomData;
use std::ops::Deref;
use std::path::Path;
use std::sync::Arc;

/// Alignment guaranteed for every section of the `CNCPREP4` cache format;
/// also satisfies every element type [`Pod`] is implemented for.
pub const SECTION_ALIGN: usize = 64;

mod sealed {
    pub trait Sealed {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
    impl Sealed for usize {}
}

/// Element types that may be read directly out of a mapped byte region:
/// plain-old-data integers with no invalid bit patterns, no padding, and no
/// drop glue. Sealed — the soundness of [`MappedSlice`] depends on the
/// implementor list staying exactly this.
pub trait Pod: sealed::Sealed + Copy + Send + Sync + 'static {}
impl Pod for u32 {}
impl Pod for u64 {}
impl Pod for usize {}

/// Whether this platform can serve `u64`-typed file sections as `&[usize]`
/// without conversion: 64-bit little-endian targets only. Elsewhere the
/// cache silently falls back to owned heap loads.
pub fn zero_copy_layout() -> bool {
    cfg!(target_endian = "little") && std::mem::size_of::<usize>() == 8
}

#[cfg(unix)]
mod sys {
    use std::ffi::{c_int, c_void};

    pub const PROT_READ: c_int = 0x1;
    pub const PROT_WRITE: c_int = 0x2;
    pub const MAP_SHARED: c_int = 0x1;
    pub const MAP_PRIVATE: c_int = 0x2;
    pub const LOCK_SH: c_int = 1;
    pub const LOCK_EX: c_int = 2;
    pub const LOCK_NB: c_int = 4;

    pub fn map_failed() -> *mut c_void {
        usize::MAX as *mut c_void
    }

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub fn flock(fd: c_int, operation: c_int) -> c_int;
    }
}

#[cfg(unix)]
fn flock_fd(file: &File, operation: std::ffi::c_int) -> io::Result<()> {
    use std::os::unix::io::AsRawFd;
    // Restart on EINTR: a blocking flock may be interrupted by signals.
    loop {
        let rc = unsafe { sys::flock(file.as_raw_fd(), operation) };
        if rc == 0 {
            return Ok(());
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// A read-only memory mapping of an entire file.
///
/// The mapping is `MAP_PRIVATE` + `PROT_READ`: the bytes are immutable
/// through this handle and never written back. The opened [`File`] is kept
/// (it holds the shared advisory lock and, on Unix, pins the inode), and the
/// region is `munmap`ed on drop.
#[derive(Debug)]
pub struct MappedFile {
    ptr: *mut u8,
    len: usize,
    /// Keeps the fd (and its shared `flock`) alive as long as the mapping.
    _file: File,
}

// SAFETY: the mapping is read-only for its entire lifetime and the raw
// pointer is only exposed as `&[u8]`/`&[T]` borrows of `self`.
unsafe impl Send for MappedFile {}
unsafe impl Sync for MappedFile {}

impl MappedFile {
    /// Map `path` read-only, taking a shared advisory `flock` that is held
    /// until the mapping is dropped.
    ///
    /// Errors with [`io::ErrorKind::Unsupported`] on non-Unix platforms so
    /// callers can fall back to an owned read.
    #[cfg(unix)]
    pub fn open(path: &Path) -> io::Result<Arc<Self>> {
        use std::os::unix::io::AsRawFd;

        let file = File::open(path)?;
        flock_fd(&file, sys::LOCK_SH)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large to map"))?;
        if len == 0 {
            // mmap(2) rejects zero-length mappings; an empty file maps to an
            // empty (dangling but never dereferenced) region.
            return Ok(Arc::new(Self {
                ptr: std::ptr::null_mut(),
                len: 0,
                _file: file,
            }));
        }
        // SAFETY: fd is a valid open file of at least `len` bytes; we request
        // a fresh PROT_READ private mapping at a kernel-chosen address.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::map_failed() {
            return Err(io::Error::last_os_error());
        }
        Ok(Arc::new(Self {
            ptr: ptr.cast(),
            len,
            _file: file,
        }))
    }

    /// Non-Unix fallback: mapping is unavailable, callers use owned reads.
    #[cfg(not(unix))]
    pub fn open(_path: &Path) -> io::Result<Arc<Self>> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "memory mapping is only wired up on Unix platforms",
        ))
    }

    /// The mapped bytes.
    pub fn bytes(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len` bytes
        // owned by `self`; the borrow ties the slice to the mapping.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Length of the mapping in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A typed view of `count` elements of `T` starting at byte `offset`,
    /// sharing ownership of the mapping.
    ///
    /// Errors (never panics) on out-of-bounds ranges, misaligned offsets, or
    /// arithmetic overflow — the inputs come from untrusted file headers.
    pub fn typed_slice<T: Pod>(
        self: &Arc<Self>,
        offset: usize,
        count: usize,
    ) -> io::Result<MappedSlice<T>> {
        let invalid = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let byte_len = count
            .checked_mul(std::mem::size_of::<T>())
            .ok_or_else(|| invalid("typed slice length overflows"))?;
        let end = offset
            .checked_add(byte_len)
            .ok_or_else(|| invalid("typed slice range overflows"))?;
        if end > self.len {
            return Err(invalid("typed slice out of the mapped range"));
        }
        let ptr = if self.len == 0 {
            std::ptr::NonNull::<T>::dangling().as_ptr() as *const T
        } else {
            // SAFETY: offset <= end <= len, so the pointer stays inside (or
            // one past) the mapping.
            unsafe { self.ptr.add(offset) as *const T }
        };
        if !(ptr as usize).is_multiple_of(std::mem::align_of::<T>()) {
            return Err(invalid("typed slice is misaligned for its element type"));
        }
        Ok(MappedSlice {
            ptr,
            len: count,
            _map: Arc::clone(self),
            _elem: PhantomData,
        })
    }
}

impl Drop for MappedFile {
    fn drop(&mut self) {
        #[cfg(unix)]
        if self.len != 0 {
            // SAFETY: `ptr`/`len` describe the mapping created in `open`,
            // unmapped exactly once here.
            unsafe {
                sys::munmap(self.ptr.cast(), self.len);
            }
        }
    }
}

/// A `&[T]` view into a [`MappedFile`], keeping the mapping alive.
///
/// Dereferences to a slice; cloning is an `Arc` bump.
#[derive(Debug, Clone)]
pub struct MappedSlice<T: Pod> {
    ptr: *const T,
    len: usize,
    _map: Arc<MappedFile>,
    _elem: PhantomData<T>,
}

// SAFETY: the underlying memory is immutable and `T: Pod` is Send + Sync.
unsafe impl<T: Pod> Send for MappedSlice<T> {}
unsafe impl<T: Pod> Sync for MappedSlice<T> {}

impl<T: Pod> Deref for MappedSlice<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: construction checked bounds and alignment against the
        // mapping, `_map` keeps the memory alive, and `T: Pod` admits every
        // bit pattern.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

/// A read-write, *growable* memory mapping of a file, used by the streaming
/// preparation pipeline to assemble a `CNCPREP` cache file section by
/// section without an O(|E|) heap staging copy.
///
/// The mapping is `MAP_SHARED` + `PROT_READ|PROT_WRITE`: stores through
/// [`bytes_mut`](Self::bytes_mut) land in the page cache and reach the file.
/// [`grow`](Self::grow) extends the file (`File::set_len`) and remaps — the
/// two-pass CSR builder creates the file small, then grows it once the
/// degree pass has fixed every section size. [`into_file`](Self::into_file)
/// unmaps and hands the descriptor back so the caller can `sync_all` (which
/// flushes mmap-dirtied pages on Linux) and atomically rename into place.
///
/// Not `Sync`: the builder writes single-threaded. On non-Unix platforms
/// [`create`](Self::create) returns [`io::ErrorKind::Unsupported`] and
/// callers fall back to the in-memory build path.
#[derive(Debug)]
pub struct MappedFileMut {
    ptr: *mut u8,
    len: usize,
    file: Option<File>,
}

// SAFETY: the raw pointer is only dereferenced through `&self`/`&mut self`
// borrows; moving the handle across threads is fine. Deliberately not Sync —
// `bytes_mut` would otherwise allow aliased mutation.
unsafe impl Send for MappedFileMut {}

impl MappedFileMut {
    /// Create (truncating) `path` at `len` bytes and map it read-write.
    ///
    /// Errors with [`io::ErrorKind::Unsupported`] on non-Unix platforms so
    /// callers can fall back to an owned in-memory build.
    #[cfg(unix)]
    pub fn create(path: &Path, len: usize) -> io::Result<Self> {
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut this = Self {
            ptr: std::ptr::null_mut(),
            len: 0,
            file: Some(file),
        };
        this.grow(len)?;
        Ok(this)
    }

    /// Non-Unix fallback: write-mode mapping is unavailable.
    #[cfg(not(unix))]
    pub fn create(_path: &Path, _len: usize) -> io::Result<Self> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "write-mode memory mapping is only wired up on Unix platforms",
        ))
    }

    fn file(&self) -> &File {
        // The Option is only vacated by `into_file`, which consumes `self`.
        self.file.as_ref().expect("file present until into_file")
    }

    fn unmap(&mut self) {
        #[cfg(unix)]
        if self.len != 0 {
            // SAFETY: `ptr`/`len` describe the live mapping created by
            // `grow`; unmapped exactly once before being overwritten/dropped.
            unsafe {
                sys::munmap(self.ptr.cast(), self.len);
            }
        }
        self.ptr = std::ptr::null_mut();
        self.len = 0;
    }

    /// Extend the file to `new_len` bytes (zero-filled) and remap.
    ///
    /// Shrinking is rejected: live references into the tail would become
    /// dangling file offsets.
    #[cfg(unix)]
    pub fn grow(&mut self, new_len: usize) -> io::Result<()> {
        use std::os::unix::io::AsRawFd;

        if new_len < self.len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("cannot shrink mapping from {} to {new_len} bytes", self.len),
            ));
        }
        if new_len == self.len {
            return Ok(());
        }
        self.unmap();
        self.file().set_len(new_len as u64)?;
        // SAFETY: fd is a valid open file of exactly `new_len` bytes; we
        // request a fresh shared read-write mapping at a kernel-chosen
        // address.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                new_len,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_SHARED,
                self.file().as_raw_fd(),
                0,
            )
        };
        if ptr == sys::map_failed() {
            return Err(io::Error::last_os_error());
        }
        self.ptr = ptr.cast();
        self.len = new_len;
        Ok(())
    }

    /// Non-Unix fallback (unreachable: `create` already failed).
    #[cfg(not(unix))]
    pub fn grow(&mut self, _new_len: usize) -> io::Result<()> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "write-mode memory mapping is only wired up on Unix platforms",
        ))
    }

    /// The mapped bytes, writable.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        if self.len == 0 {
            return &mut [];
        }
        // SAFETY: `ptr` is a live PROT_READ|PROT_WRITE mapping of exactly
        // `len` bytes owned by `self`; the exclusive borrow ties the slice to
        // the mapping and prevents aliasing.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }

    /// The mapped bytes, read-only.
    pub fn bytes(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: as in `bytes_mut`, with a shared borrow.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Length of the mapping in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Unmap and return the file handle so the caller can `sync_all` and
    /// rename the finished file into place.
    pub fn into_file(mut self) -> File {
        self.unmap();
        self.file.take().expect("file present until into_file")
    }
}

impl Drop for MappedFileMut {
    fn drop(&mut self) {
        self.unmap();
    }
}

/// An exclusive advisory lock on a file, released on drop (or process exit).
///
/// `flock` semantics: cooperating processes (and separate opens within one
/// process) exclude each other; the lock never blocks non-cooperating I/O.
#[derive(Debug)]
pub struct FileLock {
    _file: File,
}

impl FileLock {
    fn open_lock_file(path: &Path) -> io::Result<File> {
        File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
    }

    /// Take an exclusive lock on `path` (creating the file if absent),
    /// blocking until it is available.
    pub fn exclusive(path: &Path) -> io::Result<Self> {
        let file = Self::open_lock_file(path)?;
        #[cfg(unix)]
        flock_fd(&file, sys::LOCK_EX)?;
        Ok(Self { _file: file })
    }

    /// Try to take an exclusive lock on `path` without blocking. `Ok(None)`
    /// means some other holder (a mapped reader or another writer) has it.
    pub fn try_exclusive(path: &Path) -> io::Result<Option<Self>> {
        let file = Self::open_lock_file(path)?;
        #[cfg(unix)]
        {
            let rc = flock_fd(&file, sys::LOCK_EX | sys::LOCK_NB);
            if let Err(e) = rc {
                return if e.kind() == io::ErrorKind::WouldBlock {
                    Ok(None)
                } else {
                    Err(e)
                };
            }
        }
        Ok(Some(Self { _file: file }))
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::Write;
    use std::path::PathBuf;

    fn temp_file(name: &str, bytes: &[u8]) -> PathBuf {
        let path = std::env::temp_dir().join(format!("cnc-mmap-{}-{name}", std::process::id()));
        let mut f = File::create(&path).unwrap();
        f.write_all(bytes).unwrap();
        path
    }

    #[test]
    fn maps_file_bytes_exactly() {
        let data: Vec<u8> = (0..=255).collect();
        let path = temp_file("exact", &data);
        let map = MappedFile::open(&path).unwrap();
        assert_eq!(map.bytes(), data.as_slice());
        assert_eq!(map.len(), 256);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_file_maps_empty() {
        let path = temp_file("empty", &[]);
        let map = MappedFile::open(&path).unwrap();
        assert!(map.is_empty());
        assert_eq!(map.bytes(), &[] as &[u8]);
        assert!(map.typed_slice::<u64>(0, 0).unwrap().is_empty());
        assert!(map.typed_slice::<u64>(0, 1).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn typed_slices_decode_little_endian_payload() {
        let mut bytes = Vec::new();
        for v in [1u64, u64::MAX, 42] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        for v in [7u32, 0, u32::MAX] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let path = temp_file("typed", &bytes);
        let map = MappedFile::open(&path).unwrap();
        let words = map.typed_slice::<u64>(0, 3).unwrap();
        assert_eq!(&*words, &[1, u64::MAX, 42]);
        let ints = map.typed_slice::<u32>(24, 3).unwrap();
        assert_eq!(&*ints, &[7, 0, u32::MAX]);
        // The slice keeps the mapping alive after the Arc handle is gone.
        drop(map);
        assert_eq!(words[2], 42);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn typed_slice_rejects_bad_ranges() {
        let path = temp_file("ranges", &[0u8; 64]);
        let map = MappedFile::open(&path).unwrap();
        assert!(map.typed_slice::<u64>(0, 9).is_err(), "out of bounds");
        assert!(map.typed_slice::<u64>(3, 1).is_err(), "misaligned");
        assert!(
            map.typed_slice::<u64>(usize::MAX, 1).is_err(),
            "range overflow"
        );
        assert!(
            map.typed_slice::<u64>(0, usize::MAX).is_err(),
            "length overflow"
        );
        assert!(map.typed_slice::<u32>(60, 1).is_ok(), "tail u32 fits");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mut_mapping_grows_and_persists_writes() {
        let path = std::env::temp_dir().join(format!("cnc-mmap-mut-{}", std::process::id()));
        let mut map = MappedFileMut::create(&path, 64).unwrap();
        assert_eq!(map.len(), 64);
        map.bytes_mut()[..4].copy_from_slice(&[1, 2, 3, 4]);
        // Growing remaps: the early write must survive, the tail reads zero.
        map.grow(4096).unwrap();
        assert_eq!(&map.bytes()[..4], &[1, 2, 3, 4]);
        assert_eq!(map.bytes()[4095], 0);
        map.bytes_mut()[4095] = 9;
        assert!(map.grow(10).is_err(), "shrinking must be rejected");
        let file = map.into_file();
        file.sync_all().unwrap();
        drop(file);
        let back = std::fs::read(&path).unwrap();
        assert_eq!(back.len(), 4096);
        assert_eq!(&back[..4], &[1, 2, 3, 4]);
        assert_eq!(back[4095], 9);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mut_mapping_zero_length_is_usable() {
        let path = std::env::temp_dir().join(format!("cnc-mmap-mut0-{}", std::process::id()));
        let mut map = MappedFileMut::create(&path, 0).unwrap();
        assert!(map.is_empty());
        assert!(map.bytes_mut().is_empty());
        map.grow(8).unwrap();
        map.bytes_mut().copy_from_slice(&7u64.to_le_bytes());
        drop(map); // Drop (not into_file) must still unmap cleanly.
        assert_eq!(std::fs::read(&path).unwrap(), 7u64.to_le_bytes());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn exclusive_locks_exclude_each_other() {
        let path = std::env::temp_dir().join(format!("cnc-mmap-lock-{}", std::process::id()));
        let a = FileLock::try_exclusive(&path).unwrap();
        assert!(a.is_some(), "first lock must succeed");
        assert!(
            FileLock::try_exclusive(&path).unwrap().is_none(),
            "second exclusive lock must be refused (flock is per open-file-description)"
        );
        drop(a);
        assert!(FileLock::try_exclusive(&path).unwrap().is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mapped_reader_blocks_exclusive_lock() {
        let path = temp_file("readerlock", &[1, 2, 3, 4]);
        let map = MappedFile::open(&path).unwrap();
        assert!(
            FileLock::try_exclusive(&path).unwrap().is_none(),
            "a live mapping holds a shared lock"
        );
        drop(map);
        assert!(FileLock::try_exclusive(&path).unwrap().is_some());
        let _ = std::fs::remove_file(&path);
    }
}
