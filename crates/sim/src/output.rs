//! Result serialization: CSV for plotting, JSON for archival, and fixed-
//! width tables for the terminal.
//!
//! Experiments describe their results as structured [`Artifact`]s (a
//! series family, a table, or plain text); the engine renders each one
//! exactly once to the terminal ([`artifact_to_terminal`]) and once to
//! disk ([`write_artifact`]), so every driver shares identical CSV/JSON
//! and table formatting.

use crate::stats::Series;
use splice_telemetry::{JsonArray, JsonObject};
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};

/// A family of series cannot be rendered as one CSV table.
#[derive(Clone, Debug, PartialEq)]
pub enum CsvError {
    /// A series has a different number of points than the first one.
    LengthMismatch {
        /// Label of the offending series.
        label: String,
        /// Points in the first series.
        expected: usize,
        /// Points in the offending series.
        found: usize,
    },
    /// A series disagrees with the first one on an x value.
    GridMismatch {
        /// Label of the offending series.
        label: String,
        /// Row index of the disagreement.
        index: usize,
        /// x in the first series.
        expected: f64,
        /// x in the offending series.
        found: f64,
    },
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::LengthMismatch {
                label,
                expected,
                found,
            } => write!(
                f,
                "series {label} has a different x grid: {found} points where {expected} expected"
            ),
            CsvError::GridMismatch {
                label,
                index,
                expected,
                found,
            } => write!(
                f,
                "series {label} has a different x grid: x[{index}] = {found}, expected {expected}"
            ),
        }
    }
}

impl std::error::Error for CsvError {}

/// Render a family of series as CSV: first column is x, one column per
/// series. All series must share the same x grid; a mismatch is reported
/// as a [`CsvError`] instead of corrupting the table.
pub fn series_to_csv(series: &[Series]) -> Result<String, CsvError> {
    let mut out = String::from("x");
    for s in series {
        out.push(',');
        out.push_str(&s.label.replace(',', ";"));
    }
    out.push('\n');
    if series.is_empty() {
        return Ok(out);
    }
    let expected = series[0].points.len();
    for s in series {
        if s.points.len() != expected {
            return Err(CsvError::LengthMismatch {
                label: s.label.clone(),
                expected,
                found: s.points.len(),
            });
        }
    }
    for (i, &(x, _)) in series[0].points.iter().enumerate() {
        out.push_str(&format!("{x}"));
        for s in series {
            let (sx, sy) = s.points[i];
            if (sx - x).abs() >= 1e-12 {
                return Err(CsvError::GridMismatch {
                    label: s.label.clone(),
                    index: i,
                    expected: x,
                    found: sx,
                });
            }
            out.push_str(&format!(",{sy}"));
        }
        out.push('\n');
    }
    Ok(out)
}

/// Write CSV text to a file, creating parent directories.
pub fn write_text(path: impl AsRef<Path>, text: &str) -> std::io::Result<()> {
    if let Some(parent) = path.as_ref().parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(text.as_bytes())
}

/// A series family as JSON, the twin of its CSV:
/// `[{"label":…,"points":[[x,y],…]},…]`.
pub fn series_to_json(series: &[Series]) -> String {
    let mut family = JsonArray::new();
    for s in series {
        let mut points = JsonArray::new();
        for &(x, y) in &s.points {
            points = points.push_raw(&JsonArray::new().push_f64(x).push_f64(y).finish());
        }
        let obj = JsonObject::new()
            .field_str("label", &s.label)
            .field_raw("points", &points.finish());
        family = family.push_raw(&obj.finish());
    }
    family.finish()
}

/// Render a fixed-width terminal table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// One experiment result: a file name plus the structured value that
/// renders into it (and onto the terminal).
#[derive(Clone, Debug)]
pub struct Artifact {
    /// File name relative to the run's output directory.
    pub file: String,
    /// What the file holds.
    pub kind: ArtifactKind,
}

/// The structured payload of an [`Artifact`].
#[derive(Clone, Debug)]
pub enum ArtifactKind {
    /// A family of series sharing one x grid: written as CSV (plus an
    /// optional pretty-JSON twin), shown as a fixed-width table.
    Series {
        /// The series, in column order.
        series: Vec<Series>,
        /// Header of the x column in the terminal table.
        x_label: String,
        /// Decimal places for x in the terminal table (CSV keeps full
        /// precision).
        x_decimals: usize,
        /// Also write `<stem>.json` next to the CSV.
        json_twin: bool,
    },
    /// A fixed-width table, written and shown verbatim.
    Table {
        /// Column headers.
        headers: Vec<String>,
        /// Row cells, one `Vec` per row.
        rows: Vec<Vec<String>>,
    },
    /// Preformatted text, written and shown verbatim.
    Text(String),
}

impl Artifact {
    /// A series-family artifact (CSV on disk, table on the terminal).
    pub fn series(
        file: impl Into<String>,
        x_label: impl Into<String>,
        x_decimals: usize,
        json_twin: bool,
        series: Vec<Series>,
    ) -> Artifact {
        Artifact {
            file: file.into(),
            kind: ArtifactKind::Series {
                series,
                x_label: x_label.into(),
                x_decimals,
                json_twin,
            },
        }
    }

    /// A table artifact.
    pub fn table(file: impl Into<String>, headers: &[&str], rows: Vec<Vec<String>>) -> Artifact {
        Artifact {
            file: file.into(),
            kind: ArtifactKind::Table {
                headers: headers.iter().map(|h| h.to_string()).collect(),
                rows,
            },
        }
    }

    /// A preformatted-text artifact.
    pub fn text(file: impl Into<String>, text: impl Into<String>) -> Artifact {
        Artifact {
            file: file.into(),
            kind: ArtifactKind::Text(text.into()),
        }
    }

    /// The file name without its final extension — the stem shared by a
    /// CSV, its JSON twin, and the run manifest.
    pub fn base_name(&self) -> &str {
        match self.file.rsplit_once('.') {
            Some((stem, ext)) if !stem.is_empty() && !ext.contains('/') => stem,
            _ => &self.file,
        }
    }
}

/// Why an [`Artifact`] failed to render or write.
#[derive(Debug)]
pub enum ArtifactError {
    /// The series family does not share one x grid.
    Csv(CsvError),
    /// Filesystem failure writing the artifact.
    Io(std::io::Error),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Csv(e) => write!(f, "{e}"),
            ArtifactError::Io(e) => write!(f, "writing artifact: {e}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<CsvError> for ArtifactError {
    fn from(e: CsvError) -> ArtifactError {
        ArtifactError::Csv(e)
    }
}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> ArtifactError {
        ArtifactError::Io(e)
    }
}

/// Render an artifact for the terminal: series become the familiar
/// fixed-width table (x at `x_decimals`, y at 4 decimals), tables render
/// via [`render_table`], text passes through.
pub fn artifact_to_terminal(artifact: &Artifact) -> String {
    match &artifact.kind {
        ArtifactKind::Series {
            series,
            x_label,
            x_decimals,
            ..
        } => {
            let headers: Vec<&str> = std::iter::once(x_label.as_str())
                .chain(series.iter().map(|s| s.label.as_str()))
                .collect();
            let rows: Vec<Vec<String>> = match series.first() {
                None => Vec::new(),
                Some(first) => first
                    .points
                    .iter()
                    .enumerate()
                    .map(|(i, &(x, _))| {
                        std::iter::once(format!("{x:.prec$}", prec = x_decimals))
                            .chain(series.iter().map(|s| {
                                s.points
                                    .get(i)
                                    .map(|&(_, y)| format!("{y:.4}"))
                                    .unwrap_or_default()
                            }))
                            .collect()
                    })
                    .collect(),
            };
            render_table(&headers, &rows)
        }
        ArtifactKind::Table { headers, rows } => {
            let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
            render_table(&headers, rows)
        }
        ArtifactKind::Text(text) => text.clone(),
    }
}

/// Write an artifact under `dir`, returning every path written (a series
/// artifact with a JSON twin writes two files).
pub fn write_artifact(dir: &Path, artifact: &Artifact) -> Result<Vec<PathBuf>, ArtifactError> {
    match &artifact.kind {
        ArtifactKind::Series {
            series, json_twin, ..
        } => {
            let csv = series_to_csv(series)?;
            let path = dir.join(&artifact.file);
            write_text(&path, &csv)?;
            let mut written = vec![path];
            if *json_twin {
                let twin = dir.join(format!("{}.json", artifact.base_name()));
                write_text(&twin, &series_to_json(series))?;
                written.push(twin);
            }
            Ok(written)
        }
        ArtifactKind::Table { .. } => {
            let path = dir.join(&artifact.file);
            write_text(&path, &artifact_to_terminal(artifact))?;
            Ok(vec![path])
        }
        ArtifactKind::Text(text) => {
            let path = dir.join(&artifact.file);
            write_text(&path, text)?;
            Ok(vec![path])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_layout() {
        let series = vec![
            Series::new("k = 1", vec![(0.01, 0.1), (0.02, 0.2)]),
            Series::new("k = 2", vec![(0.01, 0.05), (0.02, 0.1)]),
        ];
        let csv = series_to_csv(&series).unwrap();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "x,k = 1,k = 2");
        assert_eq!(lines[1], "0.01,0.1,0.05");
        assert_eq!(lines[2], "0.02,0.2,0.1");
    }

    #[test]
    fn mismatched_grids_rejected() {
        let series = vec![
            Series::new("a", vec![(0.01, 0.1)]),
            Series::new("b", vec![(0.05, 0.1)]),
        ];
        let err = series_to_csv(&series).unwrap_err();
        assert_eq!(
            err,
            CsvError::GridMismatch {
                label: "b".into(),
                index: 0,
                expected: 0.01,
                found: 0.05,
            }
        );
        assert!(err.to_string().contains("different x grid"));
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let series = vec![
            Series::new("a", vec![(0.01, 0.1), (0.02, 0.2)]),
            Series::new("b", vec![(0.01, 0.1)]),
        ];
        let err = series_to_csv(&series).unwrap_err();
        assert_eq!(
            err,
            CsvError::LengthMismatch {
                label: "b".into(),
                expected: 2,
                found: 1,
            }
        );
        assert!(err.to_string().contains("different x grid"));
    }

    #[test]
    fn empty_series_list_is_just_a_header() {
        assert_eq!(series_to_csv(&[]).unwrap(), "x\n");
    }

    #[test]
    fn commas_in_labels_escaped() {
        let series = vec![Series::new("k = 1, normal", vec![(1.0, 2.0)])];
        let csv = series_to_csv(&series).unwrap();
        assert!(csv.lines().next().unwrap().ends_with("k = 1; normal"));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("splice-sim-test");
        let path = dir.join("out.csv");
        write_text(&path, "a,b\n1,2\n").unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert_eq!(back, "a,b\n1,2\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_write() {
        let series = vec![
            Series::new("k = 1", vec![(0.01, 0.1), (0.02, 0.25)]),
            Series::new("\"best\" possible", vec![(0.01, f64::NAN)]),
            Series::new("empty", vec![]),
        ];
        assert_eq!(
            series_to_json(&series),
            concat!(
                r#"[{"label":"k = 1","points":[[0.01,0.1],[0.02,0.25]]},"#,
                r#"{"label":"\"best\" possible","points":[[0.01,null]]},"#,
                r#"{"label":"empty","points":[]}]"#
            )
        );
        assert_eq!(series_to_json(&[]), "[]");
    }

    #[test]
    fn series_artifact_matches_handwritten_rendering() {
        let series = vec![
            Series::new("k = 1", vec![(0.01, 0.123456), (0.02, 0.2)]),
            Series::new("k = 2", vec![(0.01, 0.05), (0.02, 0.1)]),
        ];
        let a = Artifact::series("fig.csv", "p", 3, false, series.clone());
        // Exactly what the old per-binary code produced by hand.
        let rows: Vec<Vec<String>> = series[0]
            .points
            .iter()
            .enumerate()
            .map(|(i, &(x, _))| {
                let mut row = vec![format!("{x:.3}")];
                for s in &series {
                    row.push(format!("{:.4}", s.points[i].1));
                }
                row
            })
            .collect();
        let expected = render_table(&["p", "k = 1", "k = 2"], &rows);
        assert_eq!(artifact_to_terminal(&a), expected);
    }

    #[test]
    fn artifact_base_name_strips_extension() {
        assert_eq!(Artifact::text("a_b.csv", "").base_name(), "a_b");
        assert_eq!(Artifact::text("noext", "").base_name(), "noext");
    }

    #[test]
    fn write_series_artifact_with_twin() {
        let dir = std::env::temp_dir().join("splice-sim-artifact");
        std::fs::remove_dir_all(&dir).ok();
        let series = vec![Series::new("k = 1", vec![(0.01, 0.1)])];
        let a = Artifact::series("fam.csv", "p", 3, true, series.clone());
        let written = write_artifact(&dir, &a).unwrap();
        assert_eq!(written.len(), 2);
        let csv = std::fs::read_to_string(&written[0]).unwrap();
        assert_eq!(csv, series_to_csv(&series).unwrap());
        assert!(written[1].ends_with("fam.json"));
        let json = std::fs::read_to_string(&written[1]).unwrap();
        assert_eq!(json, r#"[{"label":"k = 1","points":[[0.01,0.1]]}]"#);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_table_and_text_artifacts() {
        let dir = std::env::temp_dir().join("splice-sim-artifact-tt");
        std::fs::remove_dir_all(&dir).ok();
        let t = Artifact::table("t.txt", &["k"], vec![vec!["1".into()]]);
        let written = write_artifact(&dir, &t).unwrap();
        assert_eq!(
            std::fs::read_to_string(&written[0]).unwrap(),
            artifact_to_terminal(&t)
        );
        let x = Artifact::text("x.txt", "hello\n");
        let written = write_artifact(&dir, &x).unwrap();
        assert_eq!(std::fs::read_to_string(&written[0]).unwrap(), "hello\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn table_render() {
        let t = render_table(
            &["k", "value"],
            &[
                vec!["1".into(), "0.5".into()],
                vec!["10".into(), "0.25".into()],
            ],
        );
        assert!(t.contains("k "));
        assert!(t.lines().count() >= 4);
    }
}
