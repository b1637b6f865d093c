//! Mount table and backend dispatch.

use std::rc::Rc;

use spritely_core::Remote;
use spritely_localfs::LocalFs;
use spritely_proto::{DirEntry, Fattr, FileHandle, Result};

/// What a path can resolve to: the local disk, or a server. A remote
/// mount names its protocol in `open`, `close`, `read`, `write`, `fsync`
/// and `getattr` only — the paper's §3 delta; every other procedure is
/// the same call over either.
#[derive(Clone)]
pub enum FsBackend {
    /// A local disk file system.
    Local(LocalFs),
    /// A remote file system over baseline or Spritely NFS.
    Remote(Remote),
}

impl FsBackend {
    /// Translates one name component under `dir`.
    pub async fn lookup(&self, dir: FileHandle, name: &str) -> Result<(FileHandle, Fattr)> {
        match self {
            FsBackend::Local(fs) => fs.lookup(dir, name),
            FsBackend::Remote(c) => c.lookup(dir, name).await,
        }
    }

    /// Creates a regular file.
    pub async fn create(&self, dir: FileHandle, name: &str) -> Result<(FileHandle, Fattr)> {
        match self {
            FsBackend::Local(fs) => fs.create(dir, name).await,
            FsBackend::Remote(c) => c.create(dir, name).await,
        }
    }

    /// Protocol-specific open work (consistency checks / open RPC).
    pub async fn open(&self, fh: FileHandle, write: bool) -> Result<Fattr> {
        match self {
            FsBackend::Local(fs) => fs.getattr(fh),
            FsBackend::Remote(Remote::Nfs(c)) => c.open(fh, write).await,
            FsBackend::Remote(Remote::Snfs(c)) => c.open(fh, write).await,
        }
    }

    /// Protocol-specific close work (drain / close RPC).
    pub async fn close(&self, fh: FileHandle, write: bool) -> Result<()> {
        match self {
            FsBackend::Local(_) => Ok(()),
            FsBackend::Remote(Remote::Nfs(c)) => c.close(fh, write).await,
            FsBackend::Remote(Remote::Snfs(c)) => c.close(fh, write).await,
        }
    }

    /// Reads up to `len` bytes at `offset`.
    pub async fn read(&self, fh: FileHandle, offset: u64, len: u32) -> Result<Vec<u8>> {
        match self {
            FsBackend::Local(fs) => fs.read(fh, offset, len).await.map(|(d, _, _)| d.to_vec()),
            FsBackend::Remote(Remote::Nfs(c)) => c.read(fh, offset, len).await.map(|(d, _)| d),
            FsBackend::Remote(Remote::Snfs(c)) => c.read(fh, offset, len).await.map(|(d, _)| d),
        }
    }

    /// Writes at `offset` with the backend's native write policy.
    pub async fn write(&self, fh: FileHandle, offset: u64, data: &[u8]) -> Result<()> {
        match self {
            FsBackend::Local(fs) => fs.write(fh, offset, data, false).await.map(|_| ()),
            FsBackend::Remote(Remote::Nfs(c)) => c.write(fh, offset, data).await,
            FsBackend::Remote(Remote::Snfs(c)) => c.write(fh, offset, data).await,
        }
    }

    /// Attributes.
    pub async fn getattr(&self, fh: FileHandle) -> Result<Fattr> {
        match self {
            FsBackend::Local(fs) => fs.getattr(fh),
            FsBackend::Remote(Remote::Nfs(c)) => c.probe_attrs(fh, false).await,
            FsBackend::Remote(Remote::Snfs(c)) => c.getattr(fh).await,
        }
    }

    /// Truncate.
    pub async fn truncate(&self, fh: FileHandle, size: u64) -> Result<Fattr> {
        match self {
            FsBackend::Local(fs) => fs.setattr(fh, Some(size)).await,
            FsBackend::Remote(c) => c.setattr(fh, Some(size)).await,
        }
    }

    /// Removes a regular file; `victim` lets remote clients drop caches
    /// and cancel delayed writes.
    pub async fn remove(&self, dir: FileHandle, name: &str, victim: FileHandle) -> Result<()> {
        match self {
            FsBackend::Local(fs) => fs.remove(dir, name).await,
            FsBackend::Remote(c) => c.remove(dir, name, Some(victim)).await,
        }
    }

    /// Creates a directory.
    pub async fn mkdir(&self, dir: FileHandle, name: &str) -> Result<(FileHandle, Fattr)> {
        match self {
            FsBackend::Local(fs) => fs.mkdir(dir, name).await,
            FsBackend::Remote(c) => c.mkdir(dir, name).await,
        }
    }

    /// Removes an empty directory.
    pub async fn rmdir(&self, dir: FileHandle, name: &str) -> Result<()> {
        match self {
            FsBackend::Local(fs) => fs.rmdir(dir, name).await,
            FsBackend::Remote(c) => c.rmdir(dir, name).await,
        }
    }

    /// Renames within one backend.
    pub async fn rename(
        &self,
        from_dir: FileHandle,
        from_name: &str,
        to_dir: FileHandle,
        to_name: &str,
    ) -> Result<()> {
        match self {
            FsBackend::Local(fs) => fs.rename(from_dir, from_name, to_dir, to_name).await,
            FsBackend::Remote(c) => c.rename(from_dir, from_name, to_dir, to_name).await,
        }
    }

    /// Lists a directory.
    pub async fn readdir(&self, dir: FileHandle) -> Result<Vec<DirEntry>> {
        match self {
            FsBackend::Local(fs) => fs.readdir(dir),
            FsBackend::Remote(c) => c.readdir(dir).await,
        }
    }

    /// Pushes pending data for `fh` toward the server/disk.
    pub async fn fsync(&self, fh: FileHandle) -> Result<()> {
        match self {
            FsBackend::Local(fs) => fs.fsync(fh).await,
            FsBackend::Remote(Remote::Nfs(c)) => c.fsync(fh).await,
            FsBackend::Remote(Remote::Snfs(c)) => c.fsync(fh).await,
        }
    }

    /// Creates a hard link `to_dir/to_name` to `from`.
    pub async fn link(&self, from: FileHandle, to_dir: FileHandle, to_name: &str) -> Result<Fattr> {
        match self {
            FsBackend::Local(fs) => fs.link(from, to_dir, to_name).await,
            FsBackend::Remote(c) => c.link(from, to_dir, to_name).await,
        }
    }

    /// Creates a symbolic link `dir/name` → `target`.
    pub async fn symlink(
        &self,
        dir: FileHandle,
        name: &str,
        target: &str,
    ) -> Result<(FileHandle, Fattr)> {
        match self {
            FsBackend::Local(fs) => fs.symlink(dir, name, target).await,
            FsBackend::Remote(c) => c.symlink(dir, name, target).await,
        }
    }

    /// Reads a symbolic link's target.
    pub async fn readlink(&self, fh: FileHandle) -> Result<String> {
        match self {
            FsBackend::Local(fs) => fs.readlink(fh),
            FsBackend::Remote(c) => c.readlink(fh).await,
        }
    }
}

/// One mount-table entry: a path prefix served by a backend.
pub struct Mount {
    prefix: Vec<String>,
    pub(crate) backend: FsBackend,
    pub(crate) root: FileHandle,
}

impl Mount {
    /// Creates a mount of `backend` (whose root handle is `root`) at
    /// `prefix` (e.g. `"/"` or `"/usr/tmp"`).
    pub fn new(prefix: &str, backend: FsBackend, root: FileHandle) -> Self {
        Mount {
            prefix: split_path(prefix).map(str::to_string).collect(),
            backend,
            root,
        }
    }

    /// `path` below this mount, if it lies there: the prefix taken off,
    /// whole components at a time.
    fn strip<'a>(&self, path: &'a str) -> Option<&'a str> {
        self.prefix.iter().try_fold(path, |rest, want| {
            let (c, rest) = next_component(rest)?;
            (c == want).then_some(rest)
        })
    }
}

/// The components of a path: what lies between its slashes.
pub(crate) fn split_path(path: &str) -> impl Iterator<Item = &str> {
    path.split('/').filter(|c| !c.is_empty())
}

/// Splits the first component off `path`: the component and what follows
/// it. `None` when nothing but slashes is left.
pub(crate) fn next_component(path: &str) -> Option<(&str, &str)> {
    let path = path.trim_start_matches('/');
    (!path.is_empty()).then(|| path.split_once('/').unwrap_or((path, "")))
}

/// The mount table.
#[derive(Clone)]
pub struct Vfs {
    /// Longest prefix first, so the first match is the longest.
    mounts: Rc<Vec<Mount>>,
}

impl Vfs {
    /// Builds a VFS from mounts. There must be a root (`"/"`) mount.
    ///
    /// # Panics
    ///
    /// Panics if no root mount is supplied.
    pub fn new(mut mounts: Vec<Mount>) -> Self {
        assert!(
            mounts.iter().any(|m| m.prefix.is_empty()),
            "a root (\"/\") mount is required"
        );
        mounts.sort_by_key(|m| std::cmp::Reverse(m.prefix.len()));
        Vfs {
            mounts: Rc::new(mounts),
        }
    }

    /// Resolves a path to its mount (longest-prefix match on whole
    /// components) and the part of the path below it. Nothing is copied:
    /// the walk borrows its components from the caller's path.
    pub(crate) fn resolve<'a>(&self, path: &'a str) -> (&Mount, &'a str) {
        self.mounts
            .iter()
            .find_map(|m| Some((m, m.strip(path)?)))
            .expect("the root mount matches every path")
    }
}
