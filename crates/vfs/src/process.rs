//! Simulated processes: fd tables, path syscalls, CPU charging.

use std::cell::RefCell;
use std::rc::Rc;

use spritely_proto::{Fattr, FileHandle, FileType, NfsStatus, Result};
use spritely_sim::{Map, Resource, Sim, SimDuration};

use crate::mount::{next_component, split_path, FsBackend, Vfs};

/// Maximum symlink expansions in one path resolution (ELOOP guard).
pub const MAX_SYMLINKS: usize = 8;

/// A file descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fd(pub u32);

/// Open mode flags (a small subset of `open(2)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenFlags {
    /// Open for reading.
    pub read: bool,
    /// Open for writing.
    pub write: bool,
    /// Create the file if missing.
    pub create: bool,
    /// Truncate to zero length on open.
    pub truncate: bool,
}

impl OpenFlags {
    /// `O_RDONLY`.
    pub fn read() -> Self {
        OpenFlags {
            read: true,
            write: false,
            create: false,
            truncate: false,
        }
    }

    /// `O_WRONLY | O_CREAT | O_TRUNC` — the common "write a fresh file".
    pub fn create_write() -> Self {
        OpenFlags {
            read: false,
            write: true,
            create: true,
            truncate: true,
        }
    }

    /// `O_RDWR`.
    pub fn read_write() -> Self {
        OpenFlags {
            read: true,
            write: true,
            create: false,
            truncate: false,
        }
    }
}

/// Per-syscall CPU costs charged to the process's host CPU.
#[derive(Debug, Clone, Copy)]
pub struct SyscallCosts {
    /// Fixed cost per syscall (trap, dispatch).
    pub per_call: SimDuration,
    /// Additional cost per KB moved by read/write (copyin/copyout).
    pub per_kb: SimDuration,
}

impl Default for SyscallCosts {
    fn default() -> Self {
        SyscallCosts {
            per_call: SimDuration::from_micros(120),
            per_kb: SimDuration::from_micros(40),
        }
    }
}

struct OpenFile {
    backend: FsBackend,
    fh: FileHandle,
    write: bool,
    read: bool,
    pos: u64,
}

struct Inner {
    sim: Sim,
    vfs: Vfs,
    cpu: Resource,
    costs: SyscallCosts,
    fds: RefCell<Map<Fd, OpenFile>>,
    next_fd: RefCell<u32>,
}

/// A simulated process: syscall API over the VFS, with CPU accounting.
#[derive(Clone)]
pub struct Proc {
    inner: Rc<Inner>,
}

impl Proc {
    /// Creates a process on the host owning `cpu`.
    pub fn new(sim: &Sim, vfs: Vfs, cpu: Resource, costs: SyscallCosts) -> Self {
        Proc {
            inner: Rc::new(Inner {
                sim: sim.clone(),
                vfs,
                cpu,
                costs,
                fds: RefCell::new(Map::default()),
                next_fd: RefCell::new(3),
            }),
        }
    }

    /// The simulation handle.
    pub fn sim(&self) -> &Sim {
        &self.inner.sim
    }

    /// Burns CPU time (models computation between I/O).
    ///
    /// Long computations are sliced into scheduler quanta so that other
    /// work on the host (write-back daemons, RPC processing) interleaves,
    /// as it would under a preemptive kernel.
    pub async fn compute(&self, d: SimDuration) {
        const QUANTUM: SimDuration = SimDuration::from_millis(100);
        let mut left = d;
        while !left.is_zero() {
            let slice = left.min(QUANTUM);
            self.inner.cpu.use_for(slice).await;
            left = left.saturating_sub(slice);
        }
    }

    async fn charge(&self, bytes: usize) {
        let t = self.inner.costs.per_call + self.inner.costs.per_kb.mul_f64(bytes as f64 / 1024.0);
        if !t.is_zero() {
            self.inner.cpu.use_for(t).await;
        }
    }

    /// Resolves a path, following symbolic links in intermediate
    /// components always, and in the final component iff `follow_last`.
    /// Loops are cut at [`MAX_SYMLINKS`] expansions.
    ///
    /// The mount root's attributes are only fetched when the path *is*
    /// the root: intermediate components are validated from their lookup
    /// replies, and real clients pin the root's attributes at mount time.
    async fn resolve_follow(
        &self,
        path: &str,
        follow_last: bool,
    ) -> Result<(FsBackend, FileHandle, Fattr)> {
        // The caller's path is walked as it is, by borrowed components;
        // only a symlink expansion builds a path of its own.
        let mut expanded: Option<String> = None;
        let mut expansions = 0usize;
        'restart: loop {
            let path = expanded.as_deref().unwrap_or(path);
            let (mount, mut rest) = self.inner.vfs.resolve(path);
            let backend = &mount.backend;
            let mut fh = mount.root;
            let mut attr: Option<Fattr> = None;
            while let Some((c, after)) = next_component(rest) {
                if attr.is_some_and(|a| a.ftype != FileType::Directory) {
                    return Err(NfsStatus::NotDir);
                }
                let (next, a) = backend.lookup(fh, c).await?;
                let is_last = next_component(after).is_none();
                if a.ftype == FileType::Symlink && (!is_last || follow_last) {
                    expansions += 1;
                    if expansions > MAX_SYMLINKS {
                        return Err(NfsStatus::Inval);
                    }
                    let target = backend.readlink(next).await?;
                    // A relative target starts from the directory holding
                    // the link (what was walked before `c`) and has its
                    // `.` and `..` applied; an absolute one starts over.
                    let relative = !target.starts_with('/');
                    let dir = &path[..path.len() - rest.len()];
                    let mut new = String::from(if relative { dir } else { "" });
                    for seg in split_path(&target) {
                        match seg {
                            "." if relative => {}
                            ".." if relative => {
                                let end = new.trim_end_matches('/').rfind('/');
                                new.truncate(end.unwrap_or(0));
                            }
                            _ => {
                                new.push('/');
                                new.push_str(seg);
                            }
                        }
                    }
                    new.push('/');
                    new.push_str(after);
                    expanded = Some(new);
                    continue 'restart;
                }
                (fh, attr, rest) = (next, Some(a), after);
            }
            let attr = match attr {
                Some(a) => a,
                None => backend.getattr(fh).await?,
            };
            return Ok((backend.clone(), fh, attr));
        }
    }

    /// Resolves `path` to its parent directory handle and final name
    /// (symlinks followed in the parent portion, never in the final
    /// component).
    async fn walk_parent<'a>(&self, path: &'a str) -> Result<(FsBackend, FileHandle, &'a str)> {
        let path = path.trim_end_matches('/');
        let (parent, name) = path.rsplit_once('/').unwrap_or(("", path));
        if name.is_empty() {
            return Err(NfsStatus::Inval);
        }
        let (backend, dir, attr) = self.resolve_follow(parent, true).await?;
        if attr.ftype != FileType::Directory {
            return Err(NfsStatus::NotDir);
        }
        Ok((backend, dir, name))
    }

    /// Opens a file by path, following symbolic links (including one in
    /// the final component).
    pub async fn open(&self, path: &str, flags: OpenFlags) -> Result<Fd> {
        self.charge(0).await;
        let (backend, dir, name) = self.walk_parent(path).await?;
        let (backend, fh) = match backend.lookup(dir, name).await {
            Ok((fh, attr)) => {
                // open(2) follows a symlink in the final component too.
                let (backend, fh, attr) = match attr.ftype {
                    FileType::Symlink => self.resolve_follow(path, true).await?,
                    _ => (backend, fh, attr),
                };
                if attr.ftype == FileType::Directory && flags.write {
                    return Err(NfsStatus::IsDir);
                }
                if flags.truncate && flags.write && attr.size > 0 {
                    backend.truncate(fh, 0).await?;
                }
                (backend, fh)
            }
            Err(NfsStatus::NoEnt) if flags.create => {
                let (fh, _) = backend.create(dir, name).await?;
                (backend, fh)
            }
            Err(e) => return Err(e),
        };
        backend.open(fh, flags.write).await?;
        let fd = Fd(*self.inner.next_fd.borrow());
        *self.inner.next_fd.borrow_mut() += 1;
        self.inner.fds.borrow_mut().insert(
            fd,
            OpenFile {
                backend,
                fh,
                write: flags.write,
                read: flags.read || !flags.write,
                pos: 0,
            },
        );
        Ok(fd)
    }

    fn with_fd<T>(&self, fd: Fd, f: impl FnOnce(&mut OpenFile) -> T) -> Result<T> {
        let mut fds = self.inner.fds.borrow_mut();
        match fds.get_mut(&fd) {
            Some(of) => Ok(f(of)),
            None => Err(NfsStatus::Inval),
        }
    }

    /// Closes a descriptor (protocol close semantics apply).
    pub async fn close(&self, fd: Fd) -> Result<()> {
        self.charge(0).await;
        let of = self
            .inner
            .fds
            .borrow_mut()
            .remove(&fd)
            .ok_or(NfsStatus::Inval)?;
        of.backend.close(of.fh, of.write).await
    }

    /// Sequential read from the fd's position.
    pub async fn read(&self, fd: Fd, len: u32) -> Result<Vec<u8>> {
        let pos = self.with_fd(fd, |of| of.pos)?;
        let data = self.read_at(fd, pos, len).await?;
        self.with_fd(fd, |of| of.pos += data.len() as u64)?;
        Ok(data)
    }

    /// Positional read (does not move the fd position).
    pub async fn read_at(&self, fd: Fd, offset: u64, len: u32) -> Result<Vec<u8>> {
        let (backend, fh, readable) =
            self.with_fd(fd, |of| (of.backend.clone(), of.fh, of.read))?;
        if !readable {
            return Err(NfsStatus::Access);
        }
        let data = backend.read(fh, offset, len).await?;
        self.charge(data.len()).await;
        Ok(data)
    }

    /// Sequential write at the fd's position.
    pub async fn write(&self, fd: Fd, data: &[u8]) -> Result<()> {
        let pos = self.with_fd(fd, |of| of.pos)?;
        self.write_at(fd, pos, data).await?;
        self.with_fd(fd, |of| of.pos += data.len() as u64)
    }

    /// Positional write (does not move the fd position).
    pub async fn write_at(&self, fd: Fd, offset: u64, data: &[u8]) -> Result<()> {
        let (backend, fh, writable) =
            self.with_fd(fd, |of| (of.backend.clone(), of.fh, of.write))?;
        if !writable {
            return Err(NfsStatus::Access);
        }
        self.charge(data.len()).await;
        backend.write(fh, offset, data).await
    }

    /// Flushes pending data for the fd to its server/disk.
    pub async fn fsync(&self, fd: Fd) -> Result<()> {
        self.charge(0).await;
        let (backend, fh) = self.with_fd(fd, |of| (of.backend.clone(), of.fh))?;
        backend.fsync(fh).await
    }

    /// Stats a path, following symbolic links (`stat(2)`).
    pub async fn stat(&self, path: &str) -> Result<Fattr> {
        self.charge(0).await;
        let (_, _, attr) = self.resolve_follow(path, true).await?;
        Ok(attr)
    }

    /// Stats a path *without* following a final symlink (`lstat(2)`).
    pub async fn lstat(&self, path: &str) -> Result<Fattr> {
        self.charge(0).await;
        let (_, _, attr) = self.resolve_follow(path, false).await?;
        Ok(attr)
    }

    /// Creates a hard link at `linkpath` to the existing file at
    /// `existing` (both must live in the same mount, as `link(2)`'s
    /// EXDEV rule requires).
    pub async fn link(&self, existing: &str, linkpath: &str) -> Result<()> {
        self.charge(0).await;
        let (_, from, attr) = self.resolve_follow(existing, true).await?;
        if attr.ftype == FileType::Directory {
            return Err(NfsStatus::IsDir);
        }
        let (backend, dir, name) = self.walk_parent(linkpath).await?;
        backend.link(from, dir, name).await.map(|_| ())
    }

    /// Creates a symbolic link at `linkpath` pointing to `target` (the
    /// target need not exist).
    pub async fn symlink(&self, target: &str, linkpath: &str) -> Result<()> {
        self.charge(0).await;
        let (backend, dir, name) = self.walk_parent(linkpath).await?;
        backend.symlink(dir, name, target).await.map(|_| ())
    }

    /// Reads the target of the symbolic link at `path`.
    pub async fn readlink(&self, path: &str) -> Result<String> {
        self.charge(0).await;
        let (backend, fh, attr) = self.resolve_follow(path, false).await?;
        if attr.ftype != FileType::Symlink {
            return Err(NfsStatus::Inval);
        }
        backend.readlink(fh).await
    }

    /// Removes a regular file by path.
    pub async fn unlink(&self, path: &str) -> Result<()> {
        self.charge(0).await;
        let (backend, dir, name) = self.walk_parent(path).await?;
        let (victim, _) = backend.lookup(dir, name).await?;
        backend.remove(dir, name, victim).await
    }

    /// Creates a directory by path.
    pub async fn mkdir(&self, path: &str) -> Result<()> {
        self.charge(0).await;
        let (backend, dir, name) = self.walk_parent(path).await?;
        backend.mkdir(dir, name).await.map(|_| ())
    }

    /// Removes an empty directory by path.
    pub async fn rmdir(&self, path: &str) -> Result<()> {
        self.charge(0).await;
        let (backend, dir, name) = self.walk_parent(path).await?;
        backend.rmdir(dir, name).await
    }

    /// Renames within one mount.
    pub async fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.charge(0).await;
        let (b1, d1, n1) = self.walk_parent(from).await?;
        let (_b2, d2, n2) = self.walk_parent(to).await?;
        // Cross-mount renames are not supported (as in Unix: EXDEV).
        b1.rename(d1, n1, d2, n2).await
    }

    /// Lists a directory's entry names, sorted.
    pub async fn readdir(&self, path: &str) -> Result<Vec<String>> {
        self.charge(0).await;
        let (backend, dir, attr) = self.resolve_follow(path, true).await?;
        if attr.ftype != FileType::Directory {
            return Err(NfsStatus::NotDir);
        }
        let mut names: Vec<String> = backend
            .readdir(dir)
            .await?
            .into_iter()
            .map(|e| e.name)
            .collect();
        names.sort_unstable();
        Ok(names)
    }
}
