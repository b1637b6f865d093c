//! The on-"disk" structures: inode table, directories, block contents.
//!
//! `Store` operations are pure state changes with no timing; the buffer
//! cache and [`LocalFs`](crate::LocalFs) layer charge disk time around
//! them. Content recorded here is *stable*: it survives a simulated crash,
//! whereas buffer-cache contents do not.

use std::collections::BTreeMap;

use spritely_proto::{
    blocks_for, Buf, DirEntry, Fattr, FileHandle, FileType, NfsStatus, Result, BLOCK_SIZE,
};
use spritely_sim::Map;

/// Maximum name length, as in traditional Unix.
pub const NAME_MAX: usize = 255;

/// Base disk address for structural (inode/directory) writes, far from the
/// data region so they charge full positioning time.
pub const META_BASE: u64 = 1 << 40;

pub(crate) struct Inode {
    pub ino: u64,
    pub generation: u32,
    pub ftype: FileType,
    pub size: u64,
    pub nlink: u32,
    pub mtime: u64,
    pub ctime: u64,
    pub atime: u64,
    /// Logical block index → allocated disk address.
    pub addrs: Vec<u64>,
    /// Stable block contents (only what has reached "disk"): the very
    /// buffers the cache flushed, not copies of them.
    pub stable: Vec<Option<Buf>>,
    /// Directory entries (`Some` iff `ftype == Directory`).
    pub entries: Option<BTreeMap<String, u64>>,
    /// Symlink target (`Some` iff `ftype == Symlink`).
    pub symlink: Option<String>,
}

impl Inode {
    fn attr(&self) -> Fattr {
        Fattr {
            fileid: self.ino,
            ftype: self.ftype,
            size: self.size,
            nlink: self.nlink,
            mtime: self.mtime,
            ctime: self.ctime,
            atime: self.atime,
        }
    }
}

/// The stable file system image.
pub struct Store {
    fsid: u32,
    inodes: Map<u64, Inode>,
    next_ino: u64,
    next_gen: u32,
    next_addr: u64,
    root: u64,
}

impl Store {
    /// Creates a store containing only a root directory.
    pub fn new(fsid: u32) -> Self {
        let mut inodes = Map::default();
        inodes.insert(
            2,
            Inode {
                ino: 2,
                generation: 0,
                ftype: FileType::Directory,
                size: 0,
                nlink: 2,
                mtime: 0,
                ctime: 0,
                atime: 0,
                addrs: Vec::new(),
                stable: Vec::new(),
                entries: Some(BTreeMap::new()),
                symlink: None,
            },
        );
        Store {
            fsid,
            inodes,
            next_ino: 3,
            next_gen: 1,
            next_addr: 0,
            root: 2,
        }
    }

    /// Handle of the root directory.
    pub fn root(&self) -> FileHandle {
        self.handle_of(self.root)
    }

    fn handle_of(&self, ino: u64) -> FileHandle {
        let g = self.inodes[&ino].generation;
        FileHandle::new(self.fsid, ino, g)
    }

    pub(crate) fn get(&self, fh: FileHandle) -> Result<&Inode> {
        if fh.fsid != self.fsid {
            return Err(NfsStatus::Stale);
        }
        match self.inodes.get(&fh.inode) {
            Some(i) if i.generation == fh.generation => Ok(i),
            _ => Err(NfsStatus::Stale),
        }
    }

    pub(crate) fn get_mut(&mut self, fh: FileHandle) -> Result<&mut Inode> {
        if fh.fsid != self.fsid {
            return Err(NfsStatus::Stale);
        }
        match self.inodes.get_mut(&fh.inode) {
            Some(i) if i.generation == fh.generation => Ok(i),
            _ => Err(NfsStatus::Stale),
        }
    }

    /// Attributes of a file.
    pub fn getattr(&self, fh: FileHandle) -> Result<Fattr> {
        Ok(self.get(fh)?.attr())
    }

    /// Single-component lookup.
    pub fn lookup(&self, dir: FileHandle, name: &str) -> Result<(FileHandle, Fattr)> {
        let d = self.get(dir)?;
        let entries = d.entries.as_ref().ok_or(NfsStatus::NotDir)?;
        let &ino = entries.get(name).ok_or(NfsStatus::NoEnt)?;
        let fh = self.handle_of(ino);
        Ok((fh, self.inodes[&ino].attr()))
    }

    /// Lists a directory.
    pub fn readdir(&self, dir: FileHandle) -> Result<Vec<DirEntry>> {
        let d = self.get(dir)?;
        let entries = d.entries.as_ref().ok_or(NfsStatus::NotDir)?;
        Ok(entries
            .iter()
            .map(|(name, &ino)| DirEntry {
                name: name.clone(),
                fileid: ino,
            })
            .collect())
    }

    fn validate_name(name: &str) -> Result<()> {
        if name.is_empty() || name.len() > NAME_MAX || name.contains('/') {
            return Err(NfsStatus::Inval);
        }
        Ok(())
    }

    fn alloc_inode(&mut self, ftype: FileType) -> u64 {
        let ino = self.next_ino;
        self.next_ino += 1;
        let generation = self.next_gen;
        self.next_gen += 1;
        self.inodes.insert(
            ino,
            Inode {
                ino,
                generation,
                ftype,
                size: 0,
                nlink: 1,
                mtime: 0,
                ctime: 0,
                atime: 0,
                addrs: Vec::new(),
                stable: Vec::new(),
                entries: if ftype == FileType::Directory {
                    Some(BTreeMap::new())
                } else {
                    None
                },
                symlink: None,
            },
        );
        ino
    }

    /// Creates a regular file. Fails with `Exist` if the name is taken.
    pub fn create(&mut self, dir: FileHandle, name: &str, now: u64) -> Result<(FileHandle, Fattr)> {
        Self::validate_name(name)?;
        {
            let d = self.get(dir)?;
            let entries = d.entries.as_ref().ok_or(NfsStatus::NotDir)?;
            if entries.contains_key(name) {
                return Err(NfsStatus::Exist);
            }
        }
        let ino = self.alloc_inode(FileType::Regular);
        {
            let i = self.inodes.get_mut(&ino).expect("just allocated");
            i.mtime = now;
            i.ctime = now;
            i.atime = now;
        }
        let d = self.get_mut(dir).expect("checked above");
        d.entries
            .as_mut()
            .expect("checked above")
            .insert(name.to_string(), ino);
        d.mtime = now;
        d.ctime = now;
        Ok((self.handle_of(ino), self.inodes[&ino].attr()))
    }

    /// Creates a directory.
    pub fn mkdir(&mut self, dir: FileHandle, name: &str, now: u64) -> Result<(FileHandle, Fattr)> {
        Self::validate_name(name)?;
        {
            let d = self.get(dir)?;
            let entries = d.entries.as_ref().ok_or(NfsStatus::NotDir)?;
            if entries.contains_key(name) {
                return Err(NfsStatus::Exist);
            }
        }
        let ino = self.alloc_inode(FileType::Directory);
        {
            let i = self.inodes.get_mut(&ino).expect("just allocated");
            i.nlink = 2;
            i.mtime = now;
            i.ctime = now;
            i.atime = now;
        }
        let d = self.get_mut(dir).expect("checked above");
        d.entries
            .as_mut()
            .expect("checked above")
            .insert(name.to_string(), ino);
        d.nlink += 1;
        d.mtime = now;
        d.ctime = now;
        Ok((self.handle_of(ino), self.inodes[&ino].attr()))
    }

    /// Removes a directory entry for a regular file or symlink. Returns
    /// the target's handle and whether the inode itself was freed (its
    /// last hard link went away) — only then may the cache layer cancel
    /// its delayed writes.
    pub fn remove(&mut self, dir: FileHandle, name: &str, now: u64) -> Result<(FileHandle, bool)> {
        let ino = {
            let d = self.get(dir)?;
            let entries = d.entries.as_ref().ok_or(NfsStatus::NotDir)?;
            let &ino = entries.get(name).ok_or(NfsStatus::NoEnt)?;
            if self.inodes[&ino].ftype == FileType::Directory {
                return Err(NfsStatus::IsDir);
            }
            ino
        };
        let fh = self.handle_of(ino);
        let d = self.get_mut(dir).expect("checked above");
        d.entries.as_mut().expect("checked above").remove(name);
        d.mtime = now;
        d.ctime = now;
        let i = self.inodes.get_mut(&ino).expect("entry pointed at inode");
        i.nlink -= 1;
        i.ctime = now;
        let gone = i.nlink == 0;
        if gone {
            self.inodes.remove(&ino);
        }
        Ok((fh, gone))
    }

    /// Removes an empty directory.
    pub fn rmdir(&mut self, dir: FileHandle, name: &str, now: u64) -> Result<FileHandle> {
        let ino = {
            let d = self.get(dir)?;
            let entries = d.entries.as_ref().ok_or(NfsStatus::NotDir)?;
            let &ino = entries.get(name).ok_or(NfsStatus::NoEnt)?;
            let target = &self.inodes[&ino];
            let sub = target.entries.as_ref().ok_or(NfsStatus::NotDir)?;
            if !sub.is_empty() {
                return Err(NfsStatus::NotEmpty);
            }
            ino
        };
        let fh = self.handle_of(ino);
        let d = self.get_mut(dir).expect("checked above");
        d.entries.as_mut().expect("checked above").remove(name);
        d.nlink -= 1;
        d.mtime = now;
        d.ctime = now;
        self.inodes.remove(&ino);
        Ok(fh)
    }

    /// Renames `from_dir/from_name` to `to_dir/to_name`, replacing a
    /// regular-file target if present. Returns the handle of a replaced
    /// file, if any (for delayed-write cancellation).
    pub fn rename(
        &mut self,
        from_dir: FileHandle,
        from_name: &str,
        to_dir: FileHandle,
        to_name: &str,
        now: u64,
    ) -> Result<Option<FileHandle>> {
        Self::validate_name(to_name)?;
        let ino = {
            let d = self.get(from_dir)?;
            let entries = d.entries.as_ref().ok_or(NfsStatus::NotDir)?;
            *entries.get(from_name).ok_or(NfsStatus::NoEnt)?
        };
        // Check target.
        let replaced = {
            let d = self.get(to_dir)?;
            let entries = d.entries.as_ref().ok_or(NfsStatus::NotDir)?;
            match entries.get(to_name) {
                None => None,
                Some(&t) if t == ino => return Ok(None),
                Some(&t) => {
                    if self.inodes[&t].ftype == FileType::Directory {
                        return Err(NfsStatus::IsDir);
                    }
                    Some(t)
                }
            }
        };
        let replaced_fh = replaced.map(|t| self.handle_of(t));
        {
            let d = self.get_mut(from_dir).expect("checked above");
            d.entries.as_mut().expect("checked above").remove(from_name);
            d.mtime = now;
            d.ctime = now;
        }
        {
            let d = self.get_mut(to_dir).expect("checked above");
            d.entries
                .as_mut()
                .expect("checked above")
                .insert(to_name.to_string(), ino);
            d.mtime = now;
            d.ctime = now;
        }
        if let Some(t) = replaced {
            let i = self.inodes.get_mut(&t).expect("checked above");
            i.nlink -= 1;
            if i.nlink == 0 {
                self.inodes.remove(&t);
            }
        }
        Ok(replaced_fh)
    }

    /// Creates a hard link `dir/name` to the existing file `from`.
    ///
    /// Hard links to directories are rejected (as in Unix).
    pub fn link(
        &mut self,
        from: FileHandle,
        dir: FileHandle,
        name: &str,
        now: u64,
    ) -> Result<Fattr> {
        Self::validate_name(name)?;
        let ino = self.get(from)?.ino;
        if self.inodes[&ino].ftype == FileType::Directory {
            return Err(NfsStatus::IsDir);
        }
        {
            let d = self.get(dir)?;
            let entries = d.entries.as_ref().ok_or(NfsStatus::NotDir)?;
            if entries.contains_key(name) {
                return Err(NfsStatus::Exist);
            }
        }
        let d = self.get_mut(dir).expect("checked above");
        d.entries
            .as_mut()
            .expect("checked above")
            .insert(name.to_string(), ino);
        d.mtime = now;
        d.ctime = now;
        let i = self.inodes.get_mut(&ino).expect("source exists");
        i.nlink += 1;
        i.ctime = now;
        Ok(i.attr())
    }

    /// Creates a symbolic link `dir/name` pointing at `target`.
    pub fn symlink(
        &mut self,
        dir: FileHandle,
        name: &str,
        target: &str,
        now: u64,
    ) -> Result<(FileHandle, Fattr)> {
        Self::validate_name(name)?;
        if target.is_empty() || target.len() > 1024 {
            return Err(NfsStatus::Inval);
        }
        {
            let d = self.get(dir)?;
            let entries = d.entries.as_ref().ok_or(NfsStatus::NotDir)?;
            if entries.contains_key(name) {
                return Err(NfsStatus::Exist);
            }
        }
        let ino = self.alloc_inode(FileType::Symlink);
        {
            let i = self.inodes.get_mut(&ino).expect("just allocated");
            i.symlink = Some(target.to_string());
            i.size = target.len() as u64;
            i.mtime = now;
            i.ctime = now;
            i.atime = now;
        }
        let d = self.get_mut(dir).expect("checked above");
        d.entries
            .as_mut()
            .expect("checked above")
            .insert(name.to_string(), ino);
        d.mtime = now;
        d.ctime = now;
        Ok((self.handle_of(ino), self.inodes[&ino].attr()))
    }

    /// Reads a symbolic link's target.
    pub fn readlink(&self, fh: FileHandle) -> Result<String> {
        let i = self.get(fh)?;
        i.symlink.clone().ok_or(NfsStatus::Inval)
    }

    /// Truncates (or extends with zeros) a regular file.
    pub fn truncate(&mut self, fh: FileHandle, size: u64, now: u64) -> Result<Fattr> {
        let next_addr = &mut self.next_addr;
        let i = match self.inodes.get_mut(&fh.inode) {
            Some(i) if i.generation == fh.generation && fh.fsid == self.fsid => i,
            _ => return Err(NfsStatus::Stale),
        };
        if i.ftype == FileType::Directory {
            return Err(NfsStatus::IsDir);
        }
        let nblocks = blocks_for(size) as usize;
        if nblocks < i.addrs.len() {
            i.addrs.truncate(nblocks);
            i.stable.truncate(nblocks);
        } else {
            while i.addrs.len() < nblocks {
                i.addrs.push(*next_addr);
                *next_addr += 1;
                i.stable.push(None);
            }
        }
        i.size = size;
        i.mtime = now;
        i.ctime = now;
        Ok(i.attr())
    }

    /// Ensures block `lblk` has a disk address, allocating sequentially.
    pub fn ensure_block(&mut self, fh: FileHandle, lblk: u64) -> Result<u64> {
        let next_addr = &mut self.next_addr;
        let i = match self.inodes.get_mut(&fh.inode) {
            Some(i) if i.generation == fh.generation && fh.fsid == self.fsid => i,
            _ => return Err(NfsStatus::Stale),
        };
        while i.addrs.len() <= lblk as usize {
            i.addrs.push(*next_addr);
            *next_addr += 1;
            i.stable.push(None);
        }
        Ok(i.addrs[lblk as usize])
    }

    /// Disk address by raw inode number (ignores generation; inode numbers
    /// are never reused). `None` if the file or block no longer exists.
    pub fn addr_by_ino(&self, ino: u64, lblk: u64) -> Option<u64> {
        self.inodes
            .get(&ino)
            .and_then(|i| i.addrs.get(lblk as usize).copied())
    }

    /// Returns true if block `lblk` of inode `ino` has stable content.
    pub fn has_stable(&self, ino: u64, lblk: u64) -> bool {
        self.inodes
            .get(&ino)
            .and_then(|i| i.stable.get(lblk as usize))
            .is_some_and(Option::is_some)
    }

    /// Writes stable content by raw inode number; a vanished file is a
    /// silent no-op (the flush raced a delete).
    pub fn write_stable_by_ino(&mut self, ino: u64, lblk: u64, data: Buf) {
        if let Some(i) = self.inodes.get_mut(&ino) {
            if let Some(slot) = i.stable.get_mut(lblk as usize) {
                *slot = Some(data);
            }
        }
    }

    /// Reads stable content of one block (the shared zero block if never
    /// written).
    pub fn read_stable(&self, fh: FileHandle, lblk: u64) -> Result<Buf> {
        let i = self.get(fh)?;
        Ok(i.stable
            .get(lblk as usize)
            .and_then(|b| b.clone())
            .unwrap_or_else(|| Buf::zeros(BLOCK_SIZE)))
    }

    /// Writes stable content of one block (called after the disk write
    /// completes) and grows size/mtime.
    pub fn write_stable(&mut self, fh: FileHandle, lblk: u64, data: Buf) -> Result<()> {
        self.ensure_block(fh, lblk)?;
        let i = self.get_mut(fh)?;
        i.stable[lblk as usize] = Some(data);
        Ok(())
    }

    /// Updates size and mtime after a logical write of `len` bytes at
    /// `offset` (cache layer calls this immediately, before flush).
    pub fn note_write(&mut self, fh: FileHandle, offset: u64, len: u64, now: u64) -> Result<Fattr> {
        let i = self.get_mut(fh)?;
        if i.ftype == FileType::Directory {
            return Err(NfsStatus::IsDir);
        }
        i.size = i.size.max(offset + len);
        i.mtime = now;
        i.ctime = now;
        Ok(i.attr())
    }

    /// Marks an access time.
    pub fn note_read(&mut self, fh: FileHandle, now: u64) -> Result<Fattr> {
        let i = self.get_mut(fh)?;
        i.atime = now;
        Ok(i.attr())
    }

    /// Number of live inodes (for tests and statfs).
    pub fn inode_count(&self) -> usize {
        self.inodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> Store {
        Store::new(1)
    }

    #[test]
    fn root_exists_and_is_dir() {
        let s = store();
        let root = s.root();
        let a = s.getattr(root).unwrap();
        assert!(a.is_dir());
        assert_eq!(a.nlink, 2);
    }

    #[test]
    fn create_lookup_roundtrip() {
        let mut s = store();
        let root = s.root();
        let (fh, attr) = s.create(root, "a.txt", 10).unwrap();
        assert_eq!(attr.size, 0);
        let (fh2, _) = s.lookup(root, "a.txt").unwrap();
        assert_eq!(fh, fh2);
        assert_eq!(s.lookup(root, "missing").unwrap_err(), NfsStatus::NoEnt);
    }

    #[test]
    fn create_duplicate_fails() {
        let mut s = store();
        let root = s.root();
        s.create(root, "x", 0).unwrap();
        assert_eq!(s.create(root, "x", 0).unwrap_err(), NfsStatus::Exist);
    }

    #[test]
    fn bad_names_rejected() {
        let mut s = store();
        let root = s.root();
        assert_eq!(s.create(root, "", 0).unwrap_err(), NfsStatus::Inval);
        assert_eq!(s.create(root, "a/b", 0).unwrap_err(), NfsStatus::Inval);
        let long = "x".repeat(NAME_MAX + 1);
        assert_eq!(s.create(root, &long, 0).unwrap_err(), NfsStatus::Inval);
    }

    #[test]
    fn remove_makes_handle_stale() {
        let mut s = store();
        let root = s.root();
        let (fh, _) = s.create(root, "f", 0).unwrap();
        let (victim, gone) = s.remove(root, "f", 1).unwrap();
        assert_eq!(victim, fh);
        assert!(gone);
        assert_eq!(s.getattr(fh).unwrap_err(), NfsStatus::Stale);
        assert_eq!(s.lookup(root, "f").unwrap_err(), NfsStatus::NoEnt);
    }

    #[test]
    fn generation_distinguishes_recycled_names() {
        let mut s = store();
        let root = s.root();
        let (fh1, _) = s.create(root, "f", 0).unwrap();
        s.remove(root, "f", 1).unwrap();
        let (fh2, _) = s.create(root, "f", 2).unwrap();
        assert_ne!(fh1, fh2);
        assert!(s.getattr(fh2).is_ok());
        assert_eq!(s.getattr(fh1).unwrap_err(), NfsStatus::Stale);
    }

    #[test]
    fn mkdir_rmdir_lifecycle() {
        let mut s = store();
        let root = s.root();
        let (d, attr) = s.mkdir(root, "sub", 0).unwrap();
        assert!(attr.is_dir());
        assert_eq!(s.getattr(root).unwrap().nlink, 3);
        let (f, _) = s.create(d, "inner", 1).unwrap();
        assert_eq!(s.rmdir(root, "sub", 2).unwrap_err(), NfsStatus::NotEmpty);
        s.remove(d, "inner", 3).unwrap();
        s.rmdir(root, "sub", 4).unwrap();
        assert_eq!(s.getattr(d).unwrap_err(), NfsStatus::Stale);
        assert_eq!(s.getattr(root).unwrap().nlink, 2);
        let _ = f;
    }

    #[test]
    fn rmdir_of_file_fails() {
        let mut s = store();
        let root = s.root();
        s.create(root, "f", 0).unwrap();
        assert_eq!(s.rmdir(root, "f", 1).unwrap_err(), NfsStatus::NotDir);
    }

    #[test]
    fn remove_of_dir_fails() {
        let mut s = store();
        let root = s.root();
        s.mkdir(root, "d", 0).unwrap();
        assert_eq!(s.remove(root, "d", 1).unwrap_err(), NfsStatus::IsDir);
    }

    #[test]
    fn readdir_lists_sorted() {
        let mut s = store();
        let root = s.root();
        s.create(root, "b", 0).unwrap();
        s.create(root, "a", 0).unwrap();
        let names: Vec<_> = s
            .readdir(root)
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn rename_moves_and_replaces() {
        let mut s = store();
        let root = s.root();
        let (src, _) = s.create(root, "src", 0).unwrap();
        let (victim, _) = s.create(root, "dst", 0).unwrap();
        let replaced = s.rename(root, "src", root, "dst", 1).unwrap();
        assert_eq!(replaced, Some(victim));
        let (found, _) = s.lookup(root, "dst").unwrap();
        assert_eq!(found, src);
        assert_eq!(s.lookup(root, "src").unwrap_err(), NfsStatus::NoEnt);
        assert_eq!(s.getattr(victim).unwrap_err(), NfsStatus::Stale);
    }

    #[test]
    fn rename_onto_self_is_noop() {
        let mut s = store();
        let root = s.root();
        s.create(root, "f", 0).unwrap();
        assert_eq!(s.rename(root, "f", root, "f", 1).unwrap(), None);
        assert!(s.lookup(root, "f").is_ok());
    }

    #[test]
    fn blocks_allocate_sequentially() {
        let mut s = store();
        let root = s.root();
        let (fh, _) = s.create(root, "f", 0).unwrap();
        let a0 = s.ensure_block(fh, 0).unwrap();
        let a1 = s.ensure_block(fh, 1).unwrap();
        let a2 = s.ensure_block(fh, 2).unwrap();
        assert_eq!(a1, a0 + 1);
        assert_eq!(a2, a1 + 1);
    }

    #[test]
    fn stable_content_roundtrip_and_default_zeros() {
        let mut s = store();
        let root = s.root();
        let (fh, _) = s.create(root, "f", 0).unwrap();
        s.ensure_block(fh, 0).unwrap();
        assert_eq!(&*s.read_stable(fh, 0).unwrap(), &[0; BLOCK_SIZE]);
        s.write_stable(fh, 0, vec![7; BLOCK_SIZE].into()).unwrap();
        assert_eq!(&*s.read_stable(fh, 0).unwrap(), &[7; BLOCK_SIZE]);
    }

    #[test]
    fn note_write_grows_size_and_mtime() {
        let mut s = store();
        let root = s.root();
        let (fh, _) = s.create(root, "f", 0).unwrap();
        let a = s.note_write(fh, 100, 50, 5).unwrap();
        assert_eq!(a.size, 150);
        assert_eq!(a.mtime, 5);
        let a2 = s.note_write(fh, 0, 10, 6).unwrap();
        assert_eq!(a2.size, 150, "writes inside the file don't shrink it");
    }

    #[test]
    fn truncate_shrinks_and_extends() {
        let mut s = store();
        let root = s.root();
        let (fh, _) = s.create(root, "f", 0).unwrap();
        s.truncate(fh, 10_000, 1).unwrap();
        let a = s.getattr(fh).unwrap();
        assert_eq!(a.size, 10_000);
        assert_eq!(a.blocks(), 3);
        s.truncate(fh, 0, 2).unwrap();
        assert_eq!(s.getattr(fh).unwrap().size, 0);
    }

    #[test]
    fn hard_link_shares_inode_and_survives_unlink() {
        let mut s = store();
        let root = s.root();
        let (fh, _) = s.create(root, "a", 0).unwrap();
        s.ensure_block(fh, 0).unwrap();
        s.write_stable(fh, 0, vec![5; BLOCK_SIZE].into()).unwrap();
        let attr = s.link(fh, root, "b", 1).unwrap();
        assert_eq!(attr.nlink, 2);
        let (fh_b, _) = s.lookup(root, "b").unwrap();
        assert_eq!(fh_b, fh, "same handle for both names");
        // Remove the original name: inode lives on.
        let (_, gone) = s.remove(root, "a", 2).unwrap();
        assert!(!gone, "one link remains");
        assert_eq!(s.getattr(fh).unwrap().nlink, 1);
        assert_eq!(&*s.read_stable(fh, 0).unwrap(), &[5; BLOCK_SIZE]);
        let (_, gone) = s.remove(root, "b", 3).unwrap();
        assert!(gone, "last link frees the inode");
        assert_eq!(s.getattr(fh).unwrap_err(), NfsStatus::Stale);
    }

    #[test]
    fn link_to_directory_rejected() {
        let mut s = store();
        let root = s.root();
        let (d, _) = s.mkdir(root, "d", 0).unwrap();
        assert_eq!(s.link(d, root, "dlink", 1).unwrap_err(), NfsStatus::IsDir);
    }

    #[test]
    fn link_name_collision_rejected() {
        let mut s = store();
        let root = s.root();
        let (fh, _) = s.create(root, "a", 0).unwrap();
        s.create(root, "b", 0).unwrap();
        assert_eq!(s.link(fh, root, "b", 1).unwrap_err(), NfsStatus::Exist);
    }

    #[test]
    fn symlink_roundtrip() {
        let mut s = store();
        let root = s.root();
        let (lh, attr) = s.symlink(root, "ln", "/somewhere/else", 0).unwrap();
        assert_eq!(attr.ftype, FileType::Symlink);
        assert_eq!(attr.size, "/somewhere/else".len() as u64);
        assert_eq!(s.readlink(lh).unwrap(), "/somewhere/else");
        // readlink of a non-symlink is invalid.
        let (fh, _) = s.create(root, "f", 1).unwrap();
        assert_eq!(s.readlink(fh).unwrap_err(), NfsStatus::Inval);
        // symlinks remove like files.
        let (_, gone) = s.remove(root, "ln", 2).unwrap();
        assert!(gone);
    }

    #[test]
    fn symlink_empty_or_huge_target_rejected() {
        let mut s = store();
        let root = s.root();
        assert_eq!(s.symlink(root, "x", "", 0).unwrap_err(), NfsStatus::Inval);
        let huge = "t".repeat(2000);
        assert_eq!(
            s.symlink(root, "x", &huge, 0).unwrap_err(),
            NfsStatus::Inval
        );
    }

    #[test]
    fn inode_count_tracks_life() {
        let mut s = store();
        let root = s.root();
        assert_eq!(s.inode_count(), 1);
        s.create(root, "a", 0).unwrap();
        assert_eq!(s.inode_count(), 2);
        s.remove(root, "a", 1).unwrap();
        assert_eq!(s.inode_count(), 1);
    }
}
