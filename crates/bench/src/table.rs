//! Minimal aligned-table rendering for experiment output.

use std::fmt;

/// One experiment's result table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Experiment id and title (e.g. "E1 — Latency in message steps").
    pub title: String,
    /// The paper claim being reproduced.
    pub claim: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
    /// Interpretation note appended under the table.
    pub note: String,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, claim: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            claim: claim.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            note: String::new(),
        }
    }

    /// Appends a data row.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Appends a data row from displayable values.
    pub fn push<D: fmt::Display>(&mut self, cells: &[D]) {
        self.row(&cells.iter().map(|c| c.to_string()).collect::<Vec<_>>());
    }

    /// Sets the interpretation note.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                w[i] = w[i].max(c.chars().count());
            }
        }
        w
    }

    /// Renders as an aligned plain-text table.
    pub fn render_text(&self) -> String {
        let w = self.widths();
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        out.push_str(&format!("claim: {}\n", self.claim));
        let line = |cells: &[String], w: &[usize]| -> String {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!("{:<width$}  ", c, width = w[i]));
            }
            s.trim_end().to_string()
        };
        out.push_str(&line(&self.headers, &w));
        out.push('\n');
        out.push_str(&"-".repeat(w.iter().sum::<usize>() + 2 * w.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &w));
            out.push('\n');
        }
        if !self.note.is_empty() {
            out.push_str(&format!("note: {}\n", self.note));
        }
        out
    }

    /// Renders as a Markdown section.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n", self.title));
        out.push_str(&format!("**Paper claim:** {}\n\n", self.claim));
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}|\n",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        if !self.note.is_empty() {
            out.push_str(&format!("\n*{}*\n", self.note));
        }
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_text_and_markdown() {
        let mut t = Table::new("E0 — demo", "things hold", &["name", "value"]);
        t.push(&["alpha", "1"]);
        t.push(&["b", "22222"]);
        let text = t.render_text();
        assert!(text.contains("E0 — demo"));
        assert!(text.contains("alpha"));
        let md = t.render_markdown();
        assert!(md.contains("| name | value |"));
        assert!(md.contains("| b | 22222 |"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("x", "y", &["a", "b"]);
        t.push(&["only-one"]);
    }
}
