//! The Andrew benchmark (paper §5.2).
//!
//! A deterministic reconstruction of the portable Andrew benchmark: a
//! source subtree of directories and small files, processed in five
//! phases. The "compiler" of the Make phase models the I/O shape the
//! paper's analysis relies on: sources read once, a handful of popular
//! header files re-read for every compilation unit, short-lived
//! intermediates written to `/tmp` and deleted, objects written to the
//! target tree, and a final link step that reads every object.

use spritely_proto::Result;
use spritely_sim::{SimDuration, SimRng, SimTime};
use spritely_vfs::{OpenFlags, Proc};

/// Read/write chunk used by all phases (one block).
const CHUNK: usize = 4096;

/// Shape of the generated source tree and of the simulated compiler.
#[derive(Debug, Clone, Copy)]
pub struct AndrewParams {
    /// Number of subdirectories.
    pub dirs: usize,
    /// Number of `.c` compilation units.
    pub c_files: usize,
    /// Number of `.h` header files.
    pub h_files: usize,
    /// Number of miscellaneous files (docs, makefiles, data).
    pub misc_files: usize,
    /// Total bytes across all source files.
    pub total_bytes: u64,
    /// Headers re-read per compilation unit.
    pub headers_per_compile: usize,
    /// Compile CPU per KB of source.
    pub compile_cpu_per_kb: SimDuration,
    /// Object size as a fraction of source size.
    pub obj_ratio: f64,
    /// `/tmp` intermediate size as a fraction of source size.
    pub tmp_ratio: f64,
}

impl Default for AndrewParams {
    fn default() -> Self {
        AndrewParams {
            dirs: 5,
            c_files: 17,
            h_files: 20,
            misc_files: 33,
            total_bytes: 600 * 1024,
            headers_per_compile: 6,
            compile_cpu_per_kb: SimDuration::from_millis(120),
            obj_ratio: 1.2,
            tmp_ratio: 3.0,
        }
    }
}

/// Per-phase elapsed times (the rows of Table 5-1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AndrewTimes {
    /// Construct the target subtree's directories.
    pub makedir: SimDuration,
    /// Copy every file from source to target.
    pub copy: SimDuration,
    /// Recursively stat every file in the target subtree.
    pub scandir: SimDuration,
    /// Read every byte of every file in the target subtree.
    pub readall: SimDuration,
    /// Compile and link everything.
    pub make: SimDuration,
}

impl AndrewTimes {
    /// Whole-benchmark elapsed time.
    pub fn total(&self) -> SimDuration {
        self.makedir + self.copy + self.scandir + self.readall + self.make
    }
}

/// Where the benchmark's three file areas live (decided by mounts).
#[derive(Debug, Clone)]
pub struct AndrewConfig {
    /// Source subtree base (pre-populated).
    pub src_base: String,
    /// Target subtree base (created by the benchmark).
    pub target_base: String,
    /// Temporary directory for compiler intermediates.
    pub tmp_base: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    C,
    H,
    Misc,
}

#[derive(Debug, Clone)]
struct FileSpec {
    /// Path relative to the base, e.g. `"d2/f07.c"`.
    rel: String,
    size: u64,
    kind: Kind,
}

/// A deterministic Andrew benchmark instance.
pub struct AndrewBenchmark {
    params: AndrewParams,
    dirs: Vec<String>,
    files: Vec<FileSpec>,
}

impl AndrewBenchmark {
    /// Generates the tree specification from a seed.
    pub fn new(seed: u64, params: AndrewParams) -> Self {
        let rng = SimRng::new(seed);
        let dirs: Vec<String> = (0..params.dirs).map(|i| format!("d{i}")).collect();
        let n = params.c_files + params.h_files + params.misc_files;
        // Sizes: jittered around the mean so the total lands close to
        // `total_bytes`.
        let mean = params.total_bytes / n as u64;
        let mut files = Vec::with_capacity(n);
        for i in 0..n {
            let kind = if i < params.c_files {
                Kind::C
            } else if i < params.c_files + params.h_files {
                Kind::H
            } else {
                Kind::Misc
            };
            let jitter = rng.range_u64(mean / 2, mean * 3 / 2 + 1);
            let dir = &dirs[rng.index(dirs.len())];
            let ext = match kind {
                Kind::C => "c",
                Kind::H => "h",
                Kind::Misc => "txt",
            };
            files.push(FileSpec {
                rel: format!("{dir}/f{i:03}.{ext}"),
                size: jitter.max(256),
                kind,
            });
        }
        AndrewBenchmark {
            params,
            dirs,
            files,
        }
    }

    /// Total source bytes of the generated tree.
    pub fn source_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.size).sum()
    }

    /// Number of files in the tree.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Byte `i` of file `tag` is `(131 i + 17 tag) mod 251`.
    fn content(size: u64, tag: u64) -> Vec<u8> {
        let period: [u8; 251] = std::array::from_fn(|i| ((i as u64 * 131 + tag * 17) % 251) as u8);
        let mut data = vec![0; size as usize];
        crate::tile(&mut data, &period, 0);
        data
    }

    /// Creates the source subtree under `src_base` (setup; not timed as a
    /// benchmark phase).
    pub async fn populate_source(&self, p: &Proc, src_base: &str) -> Result<()> {
        p.mkdir(src_base).await.ok();
        for d in &self.dirs {
            p.mkdir(&format!("{src_base}/{d}")).await?;
        }
        for (i, f) in self.files.iter().enumerate() {
            let path = format!("{src_base}/{}", f.rel);
            let fd = p.open(&path, OpenFlags::create_write()).await?;
            let data = Self::content(f.size, i as u64);
            for chunk in data.chunks(CHUNK) {
                p.write(fd, chunk).await?;
            }
            p.close(fd).await?;
        }
        Ok(())
    }

    async fn copy_file(&self, p: &Proc, from: &str, to: &str) -> Result<()> {
        let src = p.open(from, OpenFlags::read()).await?;
        let dst = p.open(to, OpenFlags::create_write()).await?;
        loop {
            let data = p.read(src, CHUNK as u32).await?;
            if data.is_empty() {
                break;
            }
            p.write(dst, &data).await?;
        }
        p.close(src).await?;
        p.close(dst).await?;
        Ok(())
    }

    async fn read_fully(&self, p: &Proc, path: &str) -> Result<u64> {
        let fd = p.open(path, OpenFlags::read()).await?;
        let mut total = 0u64;
        loop {
            let data = p.read(fd, CHUNK as u32).await?;
            if data.is_empty() {
                break;
            }
            total += data.len() as u64;
        }
        p.close(fd).await?;
        Ok(total)
    }

    async fn write_file(&self, p: &Proc, path: &str, size: u64, tag: u64) -> Result<()> {
        let fd = p.open(path, OpenFlags::create_write()).await?;
        let data = Self::content(size, tag);
        for chunk in data.chunks(CHUNK) {
            p.write(fd, chunk).await?;
        }
        p.close(fd).await?;
        Ok(())
    }

    /// Phase 1: construct the target subtree's directories.
    pub async fn phase_makedir(&self, p: &Proc, cfg: &AndrewConfig) -> Result<()> {
        p.mkdir(&cfg.target_base).await.ok();
        for d in &self.dirs {
            p.mkdir(&format!("{}/{d}", cfg.target_base)).await?;
        }
        Ok(())
    }

    /// Phase 2: copy every file from source to target.
    pub async fn phase_copy(&self, p: &Proc, cfg: &AndrewConfig) -> Result<()> {
        for f in &self.files {
            self.copy_file(
                p,
                &format!("{}/{}", cfg.src_base, f.rel),
                &format!("{}/{}", cfg.target_base, f.rel),
            )
            .await?;
        }
        Ok(())
    }

    /// Phase 3: recursively examine the status of every file (twice, as
    /// the original does — it is a stat-heavy phase).
    pub async fn phase_scandir(&self, p: &Proc, cfg: &AndrewConfig) -> Result<()> {
        for _ in 0..2 {
            p.readdir(&cfg.target_base).await?;
            for d in &self.dirs {
                p.readdir(&format!("{}/{d}", cfg.target_base)).await?;
            }
            for f in &self.files {
                p.stat(&format!("{}/{}", cfg.target_base, f.rel)).await?;
            }
        }
        Ok(())
    }

    /// Phase 4: read every byte of every file in the target subtree.
    pub async fn phase_readall(&self, p: &Proc, cfg: &AndrewConfig) -> Result<()> {
        for f in &self.files {
            self.read_fully(p, &format!("{}/{}", cfg.target_base, f.rel))
                .await?;
        }
        Ok(())
    }

    /// Phase 5: compile every `.c` file and link the objects.
    ///
    /// Each compile: read the source, re-read a deterministic set of
    /// headers, burn compile CPU, write and read back a short-lived
    /// `/tmp` intermediate (then delete it), and write the object file.
    /// The link: read every object, burn CPU, write the binary.
    pub async fn phase_make(&self, p: &Proc, cfg: &AndrewConfig) -> Result<()> {
        let headers: Vec<&FileSpec> = self.files.iter().filter(|f| f.kind == Kind::H).collect();
        let mut objects: Vec<(String, u64)> = Vec::new();
        let mut compile_idx = 0u64;
        for (i, f) in self.files.iter().enumerate() {
            if f.kind != Kind::C {
                continue;
            }
            let src_path = format!("{}/{}", cfg.target_base, f.rel);
            self.read_fully(p, &src_path).await?;
            // Headers: a deterministic window over the header list, so
            // popular headers are re-read by many compilation units.
            for h in 0..self.params.headers_per_compile.min(headers.len()) {
                let hdr = headers[(compile_idx as usize + h * 3) % headers.len()];
                self.read_fully(p, &format!("{}/{}", cfg.target_base, hdr.rel))
                    .await?;
            }
            // Compilation CPU.
            let kb = f.size as f64 / 1024.0;
            p.compute(self.params.compile_cpu_per_kb.mul_f64(kb)).await;
            // Short-lived intermediate in /tmp.
            let tmp_path = format!("{}/cc{}.s", cfg.tmp_base, compile_idx);
            let tmp_size = (f.size as f64 * self.params.tmp_ratio) as u64;
            self.write_file(p, &tmp_path, tmp_size, i as u64 + 1000)
                .await?;
            self.read_fully(p, &tmp_path).await?;
            p.unlink(&tmp_path).await?;
            // Object file into the target tree.
            let obj_path = format!("{}/{}", cfg.target_base, f.rel.replace(".c", ".o"));
            let obj_size = (f.size as f64 * self.params.obj_ratio) as u64;
            self.write_file(p, &obj_path, obj_size, i as u64 + 2000)
                .await?;
            objects.push((obj_path, obj_size));
            compile_idx += 1;
        }
        // Link step.
        let mut binary_size = 0u64;
        for (obj, size) in &objects {
            self.read_fully(p, obj).await?;
            binary_size += size;
        }
        p.compute(
            self.params
                .compile_cpu_per_kb
                .mul_f64(binary_size as f64 / 1024.0 * 0.5),
        )
        .await;
        self.write_file(p, &format!("{}/a.out", cfg.target_base), binary_size, 9999)
            .await?;
        Ok(())
    }

    /// Runs all five phases, timing each.
    pub async fn run(&self, p: &Proc, cfg: &AndrewConfig) -> Result<AndrewTimes> {
        let t = |since: SimTime, p: &Proc| p.sim().now().duration_since(since);
        let t0 = p.sim().now();
        self.phase_makedir(p, cfg).await?;
        let t1 = p.sim().now();
        self.phase_copy(p, cfg).await?;
        let t2 = p.sim().now();
        self.phase_scandir(p, cfg).await?;
        let t3 = p.sim().now();
        self.phase_readall(p, cfg).await?;
        let t4 = p.sim().now();
        self.phase_make(p, cfg).await?;
        let t5 = p.sim().now();
        let _ = t;
        Ok(AndrewTimes {
            makedir: t1.duration_since(t0),
            copy: t2.duration_since(t1),
            scandir: t3.duration_since(t2),
            readall: t4.duration_since(t3),
            make: t5.duration_since(t4),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_spec_is_deterministic() {
        let a = AndrewBenchmark::new(42, AndrewParams::default());
        let b = AndrewBenchmark::new(42, AndrewParams::default());
        assert_eq!(a.source_bytes(), b.source_bytes());
        assert_eq!(a.file_count(), b.file_count());
        let c = AndrewBenchmark::new(43, AndrewParams::default());
        assert_ne!(a.source_bytes(), c.source_bytes());
    }

    #[test]
    fn tree_size_near_target() {
        let a = AndrewBenchmark::new(1, AndrewParams::default());
        let total = a.source_bytes();
        let want = AndrewParams::default().total_bytes;
        assert!(
            total > want / 2 && total < want * 2,
            "total {total} vs target {want}"
        );
        assert_eq!(a.file_count(), 70);
    }

    #[test]
    fn content_is_its_per_byte_formula() {
        for size in [0, 1, 250, 251, 252, 502, 4096, 100_000, 2816 * 1024] {
            for tag in [0, 7, 1000, 2000, 9999] {
                let want: Vec<u8> = (0..size)
                    .map(|i| ((i * 131 + tag * 17) % 251) as u8)
                    .collect();
                assert!(
                    AndrewBenchmark::content(size, tag) == want,
                    "size {size}, tag {tag}"
                );
            }
        }
    }
}
