//! Fixed-width table rendering for benchmark harness output.
//!
//! Every figure harness prints its rows through [`Table`] so the output is
//! aligned, diffable and easy to compare against EXPERIMENTS.md.

/// A simple right-padded text table.
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row. Short rows are padded with empty cells; long rows are
    /// rejected to catch harness bugs early.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let mut cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert!(cells.len() <= self.header.len(), "row wider than header");
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render the table to a string (one trailing newline).
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[i];
                line.push_str(cell);
                line.push_str(&" ".repeat(widths[i] - cell.len()));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print the rendered table to stdout (what the figure benches and
    /// examples call; the one sanctioned print in a library crate).
    #[allow(clippy::print_stdout)]
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["name", "iops", "lat"]);
        t.row(vec!["community", "16000", "58.2ms"]);
        t.row(vec!["afceph", "81000", "7.9ms"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].contains("community"));
        // Columns align: "iops" column starts at same offset in all rows.
        let off = lines[0].find("iops").unwrap();
        assert_eq!(&lines[2][off..off + 5], "16000");
    }

    #[test]
    fn pads_short_rows() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["x"]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert!(t.render().contains('x'));
    }

    #[test]
    #[should_panic(expected = "row wider than header")]
    fn rejects_wide_rows() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["x", "y"]);
    }
}
