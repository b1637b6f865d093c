//! The GFS-like virtual file system layer (paper §4.1).
//!
//! In Ultrix, the "generic file system" separates filesystem-generic code
//! (name resolution, the buffer cache, file descriptors) from
//! filesystem-specific code (local disk, NFS, SNFS). This crate plays the
//! same role for the simulation:
//!
//! * a [`Vfs`] holds a mount table mapping path prefixes to backends
//!   (local file system, NFS client, or SNFS client);
//! * a [`Proc`] is one simulated process: an fd table plus per-syscall
//!   CPU charges against its host's CPU resource;
//! * pathname translation walks **one component at a time**, exactly like
//!   NFS/SNFS do on the wire — this is why roughly half of all RPC calls
//!   in the paper's Table 5-2 are `lookup`s, for both protocols.

mod mount;
mod process;

pub use mount::{FsBackend, Mount, Vfs};
pub use process::{Fd, OpenFlags, Proc, SyscallCosts};

#[cfg(test)]
mod tests {
    use super::*;
    use spritely_blockdev::{Disk, DiskParams};
    use spritely_localfs::{FsParams, LocalFs};
    use spritely_proto::{FileType, NfsStatus};
    use spritely_sim::{Resource, Sim, SimDuration};

    fn local_rig() -> (Sim, Proc) {
        let sim = Sim::new();
        let disk = Disk::new(&sim, "d", DiskParams::ra81());
        let fs = LocalFs::new(&sim, 1, disk, FsParams::default());
        let root_fh = fs.root();
        let vfs = Vfs::new(vec![Mount::new("/", FsBackend::Local(fs), root_fh)]);
        let cpu = Resource::new(&sim, "cpu", 1);
        let proc = Proc::new(&sim, vfs, cpu, SyscallCosts::default());
        (sim, proc)
    }

    #[test]
    fn create_write_read_via_paths() {
        let (sim, p) = local_rig();
        sim.block_on(async move {
            p.mkdir("/dir").await.unwrap();
            let fd = p
                .open("/dir/file", OpenFlags::create_write())
                .await
                .unwrap();
            p.write(fd, b"hello world").await.unwrap();
            p.close(fd).await.unwrap();
            let fd = p.open("/dir/file", OpenFlags::read()).await.unwrap();
            let data = p.read(fd, 100).await.unwrap();
            assert_eq!(data, b"hello world");
            let eof = p.read(fd, 100).await.unwrap();
            assert!(eof.is_empty());
            p.close(fd).await.unwrap();
        });
    }

    #[test]
    fn sequential_position_tracking() {
        let (sim, p) = local_rig();
        sim.block_on(async move {
            let fd = p.open("/f", OpenFlags::create_write()).await.unwrap();
            p.write(fd, b"abc").await.unwrap();
            p.write(fd, b"def").await.unwrap();
            p.close(fd).await.unwrap();
            let fd = p.open("/f", OpenFlags::read()).await.unwrap();
            assert_eq!(p.read(fd, 3).await.unwrap(), b"abc");
            assert_eq!(p.read(fd, 3).await.unwrap(), b"def");
            p.close(fd).await.unwrap();
        });
    }

    #[test]
    fn stat_and_readdir() {
        let (sim, p) = local_rig();
        sim.block_on(async move {
            p.mkdir("/d").await.unwrap();
            let fd = p.open("/d/x", OpenFlags::create_write()).await.unwrap();
            p.write(fd, &[0u8; 100]).await.unwrap();
            p.close(fd).await.unwrap();
            let st = p.stat("/d/x").await.unwrap();
            assert_eq!(st.size, 100);
            assert_eq!(st.ftype, FileType::Regular);
            let names = p.readdir("/d").await.unwrap();
            assert_eq!(names, vec!["x".to_string()]);
        });
    }

    #[test]
    fn unlink_and_missing_files() {
        let (sim, p) = local_rig();
        sim.block_on(async move {
            let fd = p.open("/f", OpenFlags::create_write()).await.unwrap();
            p.close(fd).await.unwrap();
            p.unlink("/f").await.unwrap();
            assert_eq!(
                p.open("/f", OpenFlags::read()).await.unwrap_err(),
                NfsStatus::NoEnt
            );
            assert_eq!(p.unlink("/f").await.unwrap_err(), NfsStatus::NoEnt);
        });
    }

    #[test]
    fn truncate_on_reopen() {
        let (sim, p) = local_rig();
        sim.block_on(async move {
            let fd = p.open("/f", OpenFlags::create_write()).await.unwrap();
            p.write(fd, &[1u8; 5000]).await.unwrap();
            p.close(fd).await.unwrap();
            let fd = p.open("/f", OpenFlags::create_write()).await.unwrap();
            p.close(fd).await.unwrap();
            assert_eq!(p.stat("/f").await.unwrap().size, 0, "O_TRUNC semantics");
        });
    }

    #[test]
    fn rename_moves_files() {
        let (sim, p) = local_rig();
        sim.block_on(async move {
            p.mkdir("/a").await.unwrap();
            p.mkdir("/b").await.unwrap();
            let fd = p.open("/a/f", OpenFlags::create_write()).await.unwrap();
            p.write(fd, b"x").await.unwrap();
            p.close(fd).await.unwrap();
            p.rename("/a/f", "/b/g").await.unwrap();
            assert!(p.stat("/a/f").await.is_err());
            assert_eq!(p.stat("/b/g").await.unwrap().size, 1);
        });
    }

    #[test]
    fn syscall_cpu_is_charged() {
        let sim = Sim::new();
        let disk = Disk::new(&sim, "d", DiskParams::ra81());
        let fs = LocalFs::new(&sim, 1, disk, FsParams::default());
        let root_fh = fs.root();
        let vfs = Vfs::new(vec![Mount::new("/", FsBackend::Local(fs), root_fh)]);
        let cpu = Resource::new(&sim, "cpu", 1);
        let costs = SyscallCosts {
            per_call: SimDuration::from_micros(100),
            per_kb: SimDuration::from_micros(25),
        };
        let p = Proc::new(&sim, vfs, cpu.clone(), costs);
        sim.block_on(async move {
            let fd = p.open("/f", OpenFlags::create_write()).await.unwrap();
            p.write(fd, &[0u8; 4096]).await.unwrap();
            p.close(fd).await.unwrap();
        });
        assert!(
            cpu.busy_permit_micros() >= 100 * 3,
            "per-syscall CPU charged"
        );
    }

    #[test]
    fn mount_prefix_resolution_prefers_longest() {
        let sim = Sim::new();
        let d1 = Disk::new(&sim, "d1", DiskParams::ra81());
        let d2 = Disk::new(&sim, "d2", DiskParams::ra81());
        let fs1 = LocalFs::new(&sim, 1, d1, FsParams::default());
        let fs2 = LocalFs::new(&sim, 2, d2, FsParams::default());
        let r1 = fs1.root();
        let r2 = fs2.root();
        let vfs = Vfs::new(vec![
            Mount::new("/", FsBackend::Local(fs1), r1),
            Mount::new("/tmp", FsBackend::Local(fs2.clone()), r2),
        ]);
        let cpu = Resource::new(&sim, "cpu", 1);
        let p = Proc::new(&sim, vfs, cpu, SyscallCosts::default());
        sim.block_on(async move {
            let fd = p.open("/tmp/x", OpenFlags::create_write()).await.unwrap();
            p.write(fd, b"in tmp fs").await.unwrap();
            p.close(fd).await.unwrap();
            // The file lives in fs2, not fs1.
            let (fh, _) = fs2.lookup(r2, "x").unwrap();
            assert_eq!(fs2.getattr(fh).unwrap().size, 9);
        });
    }

    #[test]
    fn nested_path_walk() {
        let (sim, p) = local_rig();
        sim.block_on(async move {
            p.mkdir("/a").await.unwrap();
            p.mkdir("/a/b").await.unwrap();
            p.mkdir("/a/b/c").await.unwrap();
            let fd = p
                .open("/a/b/c/deep.txt", OpenFlags::create_write())
                .await
                .unwrap();
            p.write(fd, b"deep").await.unwrap();
            p.close(fd).await.unwrap();
            assert_eq!(p.stat("/a/b/c/deep.txt").await.unwrap().size, 4);
            assert_eq!(p.stat("/a/missing/c").await.unwrap_err(), NfsStatus::NoEnt);
        });
    }

    #[test]
    fn write_at_and_read_at() {
        let (sim, p) = local_rig();
        sim.block_on(async move {
            let fd = p.open("/f", OpenFlags::create_write()).await.unwrap();
            p.write_at(fd, 100, b"xyz").await.unwrap();
            p.close(fd).await.unwrap();
            let fd = p.open("/f", OpenFlags::read()).await.unwrap();
            let got = p.read_at(fd, 100, 3).await.unwrap();
            assert_eq!(got, b"xyz");
            assert_eq!(p.stat("/f").await.unwrap().size, 103);
            p.close(fd).await.unwrap();
        });
    }

    #[test]
    fn bad_fd_rejected() {
        let (sim, p) = local_rig();
        sim.block_on(async move {
            assert_eq!(p.read(Fd(99), 1).await.unwrap_err(), NfsStatus::Inval);
            let fd = p.open("/f", OpenFlags::create_write()).await.unwrap();
            p.close(fd).await.unwrap();
            assert_eq!(p.write(fd, b"x").await.unwrap_err(), NfsStatus::Inval);
        });
    }

    #[test]
    fn read_only_fd_cannot_write() {
        let (sim, p) = local_rig();
        sim.block_on(async move {
            let fd = p.open("/f", OpenFlags::create_write()).await.unwrap();
            p.close(fd).await.unwrap();
            let fd = p.open("/f", OpenFlags::read()).await.unwrap();
            assert_eq!(p.write(fd, b"x").await.unwrap_err(), NfsStatus::Access);
            p.close(fd).await.unwrap();
        });
    }
}

#[cfg(test)]
mod symlink_tests {
    use super::*;
    use crate::process::MAX_SYMLINKS;
    use spritely_blockdev::{Disk, DiskParams};
    use spritely_localfs::{FsParams, LocalFs};
    use spritely_proto::{FileType, NfsStatus};
    use spritely_sim::{Resource, Sim};

    fn rig() -> (Sim, Proc) {
        let sim = Sim::new();
        let disk = Disk::new(&sim, "d", DiskParams::ra81());
        let fs = LocalFs::new(&sim, 1, disk, FsParams::default());
        let root_fh = fs.root();
        let vfs = Vfs::new(vec![Mount::new("/", FsBackend::Local(fs), root_fh)]);
        let cpu = Resource::new(&sim, "cpu", 1);
        let proc = Proc::new(&sim, vfs, cpu, SyscallCosts::default());
        (sim, proc)
    }

    #[test]
    fn symlink_chain_resolves() {
        let (sim, p) = rig();
        sim.block_on(async move {
            let fd = p.open("/real", OpenFlags::create_write()).await.unwrap();
            p.write(fd, b"abc").await.unwrap();
            p.close(fd).await.unwrap();
            p.symlink("/real", "/l1").await.unwrap();
            p.symlink("/l1", "/l2").await.unwrap();
            p.symlink("/l2", "/l3").await.unwrap();
            let st = p.stat("/l3").await.unwrap();
            assert_eq!(st.size, 3);
            assert_eq!(st.ftype, FileType::Regular);
        });
    }

    #[test]
    fn symlink_in_the_middle_of_a_path() {
        let (sim, p) = rig();
        sim.block_on(async move {
            p.mkdir("/data").await.unwrap();
            p.mkdir("/data/v2").await.unwrap();
            let fd = p
                .open("/data/v2/file", OpenFlags::create_write())
                .await
                .unwrap();
            p.write(fd, b"x").await.unwrap();
            p.close(fd).await.unwrap();
            // "current" points at the versioned directory.
            p.symlink("/data/v2", "/data/current").await.unwrap();
            assert_eq!(p.stat("/data/current/file").await.unwrap().size, 1);
            let names = p.readdir("/data/current").await.unwrap();
            assert_eq!(names, vec!["file".to_string()]);
        });
    }

    #[test]
    fn unlink_removes_the_link_not_the_target() {
        let (sim, p) = rig();
        sim.block_on(async move {
            let fd = p.open("/t", OpenFlags::create_write()).await.unwrap();
            p.close(fd).await.unwrap();
            p.symlink("/t", "/alias").await.unwrap();
            p.unlink("/alias").await.unwrap();
            assert!(p.stat("/t").await.is_ok(), "target untouched");
            assert_eq!(p.lstat("/alias").await.unwrap_err(), NfsStatus::NoEnt);
        });
    }

    #[test]
    fn readlink_on_regular_file_is_invalid() {
        let (sim, p) = rig();
        sim.block_on(async move {
            let fd = p.open("/f", OpenFlags::create_write()).await.unwrap();
            p.close(fd).await.unwrap();
            assert_eq!(p.readlink("/f").await.unwrap_err(), NfsStatus::Inval);
        });
    }

    #[test]
    fn dotdot_relative_target_escaping_root_saturates() {
        let (sim, p) = rig();
        sim.block_on(async move {
            p.mkdir("/d").await.unwrap();
            let fd = p.open("/top", OpenFlags::create_write()).await.unwrap();
            p.close(fd).await.unwrap();
            // "../../top" from /d: the extra .. saturates at the root.
            p.symlink("../../top", "/d/esc").await.unwrap();
            assert!(p.stat("/d/esc").await.is_ok());
        });
    }

    /// The path walk as a table: how slashes, mount prefixes and symlink
    /// targets are read, pinned across the move from owned component
    /// vectors to borrowed ones.
    #[test]
    fn path_walk_table() {
        let sim = Sim::new();
        let [fs1, fs2] = [1, 2].map(|id| {
            let disk = Disk::new(&sim, "d", DiskParams::ra81());
            LocalFs::new(&sim, id, disk, FsParams::default())
        });
        let vfs = Vfs::new(vec![
            Mount::new("/", FsBackend::Local(fs1.clone()), fs1.root()),
            Mount::new("/usr/tmp", FsBackend::Local(fs2.clone()), fs2.root()),
        ]);
        let p = Proc::new(
            &sim,
            vfs,
            Resource::new(&sim, "cpu", 1),
            SyscallCosts::default(),
        );
        sim.block_on(async move {
            // Files are told apart by size.
            let file = |path: &'static str, size: usize| {
                let p = p.clone();
                async move {
                    let fd = p.open(path, OpenFlags::create_write()).await.unwrap();
                    p.write(fd, &vec![0u8; size]).await.unwrap();
                    p.close(fd).await.unwrap();
                }
            };
            // Repeated and trailing slashes separate nothing.
            p.mkdir("/a").await.unwrap();
            p.mkdir("//a///b/").await.unwrap();
            file("/a/b/f", 1).await;
            p.mkdir("/usr").await.unwrap();
            // Lands in fs1 and is hidden by the mount from then on.
            p.mkdir("/usr/tmp").await.unwrap();
            file("/usr/x", 2).await;
            file("/usr/tmp/x", 3).await;
            file("/usr/tmpx", 4).await;
            p.mkdir("/usr/tmp/sub").await.unwrap();
            file("/top", 5).await;
            for (target, link) in [
                ("./../a/./b/f", "/a/rel"),         // relative: `.` and `..` are applied
                ("../../../../top", "/a/b/up"),     // `..` saturates at the root
                ("/a/b/f", "/abs"),                 // absolute: restarts at the root
                ("/a/../top", "/absdots"),          // absolute: dots are plain names
                ("../x", "/usr/tmp/out"),           // climbs out of its mount
                ("../../tmp/x", "/usr/tmp/sub/in"), // and back into it
                ("b", "/a/dir"),                    // a link in the middle of a path
                ("/loop", "/loop"),
            ] {
                p.symlink(target, link).await.unwrap();
            }
            // A chain of MAX_SYMLINKS links resolves; one more does not.
            p.symlink("/top", "/c0").await.unwrap();
            for i in 1..=MAX_SYMLINKS {
                let (target, link) = (format!("/c{}", i - 1), format!("/c{i}"));
                p.symlink(&target, &link).await.unwrap();
            }

            let dir = 0; // a directory, whatever its size
            for (path, want) in [
                ("/", Ok(dir)),
                ("", Ok(dir)),
                ("///", Ok(dir)),
                ("//a///b/", Ok(dir)),
                ("a/b/f", Ok(1)),
                ("/a/b/f/", Ok(1)),
                ("/a/b/f/g", Err(NfsStatus::NotDir)),
                ("/a/none/f", Err(NfsStatus::NoEnt)),
                ("/usr/x", Ok(2)),
                ("/usr/tmp/x", Ok(3)),
                ("/usr/tmp", Ok(dir)),
                ("/usr/tmpx", Ok(4)),
                ("/usr/tmp/tmpx", Err(NfsStatus::NoEnt)),
                ("/a/rel", Ok(1)),
                ("/a/b/up", Ok(5)),
                ("/abs", Ok(1)),
                ("/absdots", Err(NfsStatus::NoEnt)),
                ("/usr/tmp/out", Ok(2)),
                ("/usr/tmp/sub/in", Ok(3)),
                ("/a/dir/f", Ok(1)),
                ("/a/dir//f/", Ok(1)),
                ("/loop", Err(NfsStatus::Inval)),
                ("/c7", Ok(5)),
                ("/c8", Err(NfsStatus::Inval)),
            ] {
                let got = p.stat(path).await.map(|a| match a.ftype {
                    FileType::Directory => dir,
                    _ => a.size,
                });
                assert_eq!(got, want, "stat({path:?})");
            }
            assert_eq!(p.stat("/usr/tmp").await.unwrap().fileid, fs2.root().inode);

            // The parent walk: the last component is a name, never followed.
            for path in ["/", "", "//"] {
                assert_eq!(
                    p.mkdir(path).await,
                    Err(NfsStatus::Inval),
                    "mkdir({path:?})"
                );
            }
            assert_eq!(p.lstat("/a/rel").await.unwrap().ftype, FileType::Symlink);
            assert_eq!(p.readlink("/a/dir").await.unwrap(), "b");
            p.rename("/a/dir/f", "//a/b//g/").await.unwrap();
            assert_eq!(p.stat("/a/b/g").await.unwrap().size, 1);
            p.unlink("/a/rel").await.unwrap();
            assert_eq!(p.lstat("/a/rel").await, Err(NfsStatus::NoEnt));
            assert_eq!(p.mkdir("/top/d").await, Err(NfsStatus::NotDir));
            assert_eq!(p.rmdir("/a/dir/").await, Err(NfsStatus::NotDir));
        });
    }

    #[test]
    fn link_then_write_through_either_name() {
        let (sim, p) = rig();
        sim.block_on(async move {
            let fd = p.open("/a", OpenFlags::create_write()).await.unwrap();
            p.write(fd, b"1111").await.unwrap();
            p.close(fd).await.unwrap();
            p.link("/a", "/b").await.unwrap();
            // Append through the second name.
            let fd = p.open("/b", OpenFlags::read_write()).await.unwrap();
            p.write_at(fd, 4, b"2222").await.unwrap();
            p.close(fd).await.unwrap();
            let fd = p.open("/a", OpenFlags::read()).await.unwrap();
            assert_eq!(p.read(fd, 100).await.unwrap(), b"11112222");
            p.close(fd).await.unwrap();
        });
    }
}
