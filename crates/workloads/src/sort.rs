//! The external-sort benchmark (paper §5.3).
//!
//! Models Unix `sort` on inputs too big for memory: run generation
//! (read a buffer's worth, sort it with CPU, write it to a temp file)
//! followed by W-way merge passes over the temp files, each pass deleting
//! its inputs. With the default 128 KB run buffer and 4-way merge, the
//! temp bytes written for the paper's three input sizes reproduce its
//! temp-storage column:
//!
//! | input  | paper temp | this model |
//! |--------|-----------|------------|
//! | 281 k  | 304 k     | ≈ 1 × N (runs only)      |
//! | 1408 k | 2170 k    | ≈ 2 × N (runs + 1 pass)  |
//! | 2816 k | 7764 k    | ≈ 3 × N (runs + 2 passes)|

use spritely_proto::Result;
use spritely_sim::SimDuration;
use spritely_vfs::{Fd, OpenFlags, Proc};

/// Read/write chunk (one block).
const CHUNK: usize = 4096;

/// In-memory run buffer (Unix sort's workspace).
const RUN_SIZE: u64 = 128 * 1024;
/// Merge fan-in.
const MERGE_WAYS: usize = 4;
/// CPU to sort one KB during run generation.
const SORT_CPU_PER_KB: SimDuration = SimDuration::from_micros(6_000);
/// CPU to merge one KB during a merge pass.
const MERGE_CPU_PER_KB: SimDuration = SimDuration::from_micros(2_000);

/// Parameters of the sort. The paper's configuration is the only one any
/// caller runs, so everything but the input size is a constant above.
#[derive(Debug, Clone, Copy)]
pub struct SortParams {
    /// Input file size in bytes.
    pub input_bytes: u64,
}

impl SortParams {
    /// The paper's configuration for a given input size.
    pub fn paper(input_bytes: u64) -> Self {
        SortParams { input_bytes }
    }
}

/// Where the sort's files live.
#[derive(Debug, Clone)]
pub struct SortConfig {
    /// Pre-populated input file.
    pub input_path: String,
    /// Output file (created).
    pub output_path: String,
    /// Directory for temp files (`/usr/tmp` in the paper).
    pub tmp_dir: String,
}

/// Creates the input file (setup; not part of the timed benchmark).
pub async fn populate_sort_input(p: &Proc, path: &str, bytes: u64) -> Result<()> {
    let fd = p.open(path, OpenFlags::create_write()).await?;
    let mut written = 0u64;
    let mut chunk = vec![0u8; CHUNK];
    while written < bytes {
        let n = CHUNK.min((bytes - written) as usize);
        input_bytes(&mut chunk[..n], written);
        p.write(fd, &chunk[..n]).await?;
        written += n as u64;
    }
    p.close(fd).await?;
    Ok(())
}

/// The input's bytes from `offset` on: byte `o` is `o mod 253`.
fn input_bytes(out: &mut [u8], offset: u64) {
    let period: [u8; 253] = std::array::from_fn(|o| o as u8);
    crate::tile(out, &period, (offset % 253) as usize);
}

async fn copy_stream(p: &Proc, src: Fd, dst: Fd, limit: u64) -> Result<u64> {
    let mut moved = 0u64;
    while moved < limit {
        let want = CHUNK.min((limit - moved) as usize) as u32;
        let data = p.read(src, want).await?;
        if data.is_empty() {
            break;
        }
        p.write(dst, &data).await?;
        moved += data.len() as u64;
    }
    Ok(moved)
}

/// Runs the external sort; returns the elapsed virtual time.
pub async fn run_sort(p: &Proc, params: SortParams, cfg: &SortConfig) -> Result<SimDuration> {
    let t0 = p.sim().now();
    let mut temp_seq = 0u64;
    // ---- Run generation --------------------------------------------------
    let input = p.open(&cfg.input_path, OpenFlags::read()).await?;
    let mut runs: Vec<(String, u64)> = Vec::new();
    loop {
        // Fill the run buffer.
        let mut buf_len = 0u64;
        let mut chunks: Vec<Vec<u8>> = Vec::new();
        while buf_len < RUN_SIZE {
            let data = p
                .read(input, CHUNK.min((RUN_SIZE - buf_len) as usize) as u32)
                .await?;
            if data.is_empty() {
                break;
            }
            buf_len += data.len() as u64;
            chunks.push(data);
        }
        if buf_len == 0 {
            break;
        }
        // Sort it.
        p.compute(SORT_CPU_PER_KB.mul_f64(buf_len as f64 / 1024.0))
            .await;
        // Write the run to a temp file.
        let path = format!("{}/srt{:04}", cfg.tmp_dir, temp_seq);
        temp_seq += 1;
        let fd = p.open(&path, OpenFlags::create_write()).await?;
        for c in &chunks {
            p.write(fd, c).await?;
        }
        p.close(fd).await?;
        runs.push((path, buf_len));
    }
    p.close(input).await?;
    debug_assert_eq!(
        runs.iter().map(|&(_, size)| size).sum::<u64>(),
        params.input_bytes,
        "the input file is the size the caller declared"
    );
    // ---- Merge passes ----------------------------------------------------
    while runs.len() > 1 {
        let last_pass = runs.len() <= MERGE_WAYS;
        let mut next: Vec<(String, u64)> = Vec::new();
        for group in runs.chunks(MERGE_WAYS) {
            let total: u64 = group.iter().map(|&(_, s)| s).sum();
            let out_path = if last_pass {
                cfg.output_path.clone()
            } else {
                let path = format!("{}/srt{:04}", cfg.tmp_dir, temp_seq);
                temp_seq += 1;
                path
            };
            let out = p.open(&out_path, OpenFlags::create_write()).await?;
            // Open all inputs and read them round-robin (merge order).
            let mut fds = Vec::new();
            for (path, _) in group {
                fds.push(p.open(path, OpenFlags::read()).await?);
            }
            let mut open_fds: Vec<Fd> = fds.clone();
            let mut moved = 0u64;
            while !open_fds.is_empty() {
                let mut still = Vec::new();
                for &fd in &open_fds {
                    let data = p.read(fd, CHUNK as u32).await?;
                    if data.is_empty() {
                        continue;
                    }
                    moved += data.len() as u64;
                    p.compute(MERGE_CPU_PER_KB.mul_f64(data.len() as f64 / 1024.0))
                        .await;
                    p.write(out, &data).await?;
                    still.push(fd);
                }
                open_fds = still;
            }
            debug_assert_eq!(moved, total, "merge moved every byte");
            for fd in fds {
                p.close(fd).await?;
            }
            p.close(out).await?;
            // Delete the merged inputs — the temp-file cancellation case.
            for (path, _) in group {
                p.unlink(path).await?;
            }
            next.push((out_path, total));
        }
        runs = next;
        if last_pass {
            break;
        }
    }
    // Degenerate input (one run): it *is* the output.
    if runs.len() == 1 && runs[0].0 != cfg.output_path {
        let (path, size) = &runs[0];
        let src = p.open(path, OpenFlags::read()).await?;
        let dst = p.open(&cfg.output_path, OpenFlags::create_write()).await?;
        copy_stream(p, src, dst, *size).await?;
        p.close(src).await?;
        p.close(dst).await?;
        p.unlink(path).await?;
    }
    Ok(p.sim().now().duration_since(t0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_params_pass_counts() {
        // Validate the temp-traffic model against the paper's column.
        let passes = |n: u64| {
            let runs = n.div_ceil(RUN_SIZE);
            let mut levels = 0u64;
            let mut r = runs;
            while r > 1 {
                levels += 1;
                r = r.div_ceil(MERGE_WAYS as u64);
            }
            // Temp bytes = runs (1×N) + all but the final merge level.
            1 + levels.saturating_sub(1)
        };
        assert_eq!(passes(281 * 1024), 1); // ≈ 304 k temp
        assert_eq!(passes(1408 * 1024), 2); // ≈ 2170 k temp
        assert_eq!(passes(2816 * 1024), 3); // ≈ 7764 k temp
    }

    /// The input, chunk by chunk as `populate_sort_input` writes it.
    #[test]
    fn input_is_its_per_byte_formula() {
        let mut chunk = vec![0; CHUNK];
        for size in [0, 1, 252, 253, 254, 506, 4096, 100_000, 2816 * 1024] {
            let mut got = Vec::new();
            while got.len() < size {
                let n = CHUNK.min(size - got.len());
                input_bytes(&mut chunk[..n], got.len() as u64);
                got.extend_from_slice(&chunk[..n]);
            }
            let want: Vec<u8> = (0..size).map(|o| (o % 253) as u8).collect();
            assert!(got == want, "size {size}");
        }
    }
}
