//! Fixed-width text tables in the style of the paper.

use std::fmt::Write as _;

/// A simple fixed-width text-table builder.
///
/// # Examples
///
/// ```
/// use spritely_metrics::TextTable;
///
/// let mut t = TextTable::new(vec!["Phase", "NFS", "SNFS"]);
/// t.row(vec!["Copy".into(), "40".into(), "30".into()]);
/// let s = t.render();
/// assert!(s.contains("Copy"));
/// ```
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row has a different number of cells than the header.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width does not match header"
        );
        self.rows.push(cells);
    }

    /// Renders the table. The first column is left-aligned, the rest are
    /// right-aligned (numeric convention).
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                if i == 0 {
                    let _ = write!(out, "{:<width$}", cell, width = widths[i]);
                } else {
                    let _ = write!(out, "{:>width$}", cell, width = widths[i]);
                }
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["name", "n"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer".into(), "100".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines equal width.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        // Numbers right-aligned.
        assert!(lines[2].ends_with("  1"));
        assert!(lines[3].ends_with("100"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only-one".into()]);
    }
}
