//! Backing storage for CSR arrays: owned heap vectors or zero-copy views
//! into an `mmap`ed cache file.
//!
//! [`GraphStore`] is the abstraction that lets a [`crate::CsrGraph`] serve
//! its offset/adjacency arrays either from ordinary `Vec`s (cold builds,
//! non-Unix platforms, misaligned caches) or directly out of a mapped
//! `CNCPREP4` file ([`MappedSlice`]) without copying a byte. It dereferences
//! to a slice, so every kernel, driver, backend and simulator downstream is
//! untouched — they already consume `&[usize]` / `&[u32]`.

use std::fmt;
use std::ops::Deref;

use crate::mmap::{MappedSlice, Pod};

/// Storage for one CSR array: an owned `Vec` or a mapped file region.
#[derive(Clone)]
pub enum GraphStore<T: Pod> {
    /// Heap-allocated storage (cold builds, deserialization fallback).
    Owned(Vec<T>),
    /// A typed view into an `mmap`ed cache file; cloning bumps the file's
    /// `Arc`, and the mapping (plus its shared reader lock) lives as long as
    /// any clone.
    Mapped(MappedSlice<T>),
}

impl<T: Pod> GraphStore<T> {
    /// The stored elements.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match self {
            GraphStore::Owned(v) => v,
            GraphStore::Mapped(m) => m,
        }
    }

    /// Whether the elements live in a mapped file rather than on the heap.
    pub fn is_mapped(&self) -> bool {
        matches!(self, GraphStore::Mapped(_))
    }
}

impl<T: Pod> Deref for GraphStore<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod> From<Vec<T>> for GraphStore<T> {
    fn from(v: Vec<T>) -> Self {
        GraphStore::Owned(v)
    }
}

impl<T: Pod> From<MappedSlice<T>> for GraphStore<T> {
    fn from(m: MappedSlice<T>) -> Self {
        GraphStore::Mapped(m)
    }
}

/// Equality is content equality: an owned store and a mapped store holding
/// the same elements compare equal (mapped loads must be indistinguishable
/// from owned ones).
impl<T: Pod + PartialEq> PartialEq for GraphStore<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Pod + Eq> Eq for GraphStore<T> {}

impl<T: Pod + fmt::Debug> fmt::Debug for GraphStore<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = if self.is_mapped() { "Mapped" } else { "Owned" };
        write!(f, "{tag}(")?;
        fmt::Debug::fmt(self.as_slice(), f)?;
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_store_behaves_like_a_slice() {
        let s: GraphStore<u32> = vec![3u32, 1, 4].into();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1], 1);
        assert_eq!(&*s, &[3, 1, 4]);
        assert!(!s.is_mapped());
        assert_eq!(s, s.clone());
        assert!(format!("{s:?}").starts_with("Owned("));
    }

    #[cfg(unix)]
    #[test]
    fn mapped_store_equals_owned_with_same_content() {
        use crate::mmap::MappedFile;
        use std::io::Write;

        let path = std::env::temp_dir().join(format!("cnc-store-{}", std::process::id()));
        let values = [10u32, 20, 30, 40];
        let mut f = std::fs::File::create(&path).unwrap();
        for v in values {
            f.write_all(&v.to_le_bytes()).unwrap();
        }
        drop(f);
        let map = MappedFile::open(&path).unwrap();
        let mapped: GraphStore<u32> = map.typed_slice::<u32>(0, 4).unwrap().into();
        let owned: GraphStore<u32> = values.to_vec().into();
        assert!(mapped.is_mapped());
        assert_eq!(mapped, owned);
        assert_eq!(mapped[2], 30);
        assert!(format!("{mapped:?}").starts_with("Mapped("));
        let _ = std::fs::remove_file(&path);
    }
}
