//! The workspace symbol model: every file's parsed functions plus name
//! indexes, built once per lint run and used by S102 and the report's
//! symbol spans.

use std::collections::HashMap;

use crate::parse::{parse_fns, FnItem};
use crate::source::File;

/// Identifies one function in the model: `(file index, fn index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FnId {
    /// Index into the model's file slice.
    pub file: usize,
    /// Index into that file's `fns`.
    pub idx: usize,
}

/// The symbol model over one workspace (or one fixture mini-workspace).
pub struct Model<'a> {
    /// The files, in the caller's (sorted) order.
    pub files: &'a [File],
    /// Each file's parsed functions, parallel to `files`.
    pub fns: Vec<Vec<FnItem>>,
    fns_by_name: HashMap<String, Vec<FnId>>,
    file_by_path: HashMap<String, usize>,
}

impl<'a> Model<'a> {
    /// Parses `files` and indexes their functions.
    pub fn build(files: &'a [File]) -> Model<'a> {
        let fns: Vec<Vec<FnItem>> = files.iter().map(parse_fns).collect();
        let mut fns_by_name: HashMap<String, Vec<FnId>> = HashMap::new();
        let mut file_by_path = HashMap::new();
        for (fi, (f, file_fns)) in files.iter().zip(&fns).enumerate() {
            file_by_path.insert(f.path.clone(), fi);
            for (idx, func) in file_fns.iter().enumerate() {
                fns_by_name
                    .entry(func.name.clone())
                    .or_default()
                    .push(FnId { file: fi, idx });
            }
        }
        Model {
            files,
            fns,
            fns_by_name,
            file_by_path,
        }
    }

    /// The function behind `id`.
    pub fn fn_item(&self, id: FnId) -> &FnItem {
        &self.fns[id.file][id.idx]
    }

    /// The file a function lives in.
    pub fn fn_file(&self, id: FnId) -> &File {
        &self.files[id.file]
    }

    /// Every function named `name`, workspace-wide, in file order.
    pub fn fns_named(&self, name: &str) -> &[FnId] {
        self.fns_by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// Whether the function's declaration sits in test code.
    pub fn is_test_fn(&self, id: FnId) -> bool {
        self.fn_file(id).in_test(self.fn_item(id).line)
    }

    /// File index for a workspace-relative path.
    pub fn file_index(&self, path: &str) -> Option<usize> {
        self.file_by_path.get(path).copied()
    }

    /// The innermost function whose extent (declaration line through
    /// body close) contains `line` in file `fi`.
    pub fn enclosing_fn(&self, fi: usize, line: u32) -> Option<FnId> {
        let f = &self.files[fi];
        let mut best: Option<(u32, FnId)> = None;
        for (idx, func) in self.fns[fi].iter().enumerate() {
            let Some((_, close)) = func.body else {
                if func.line == line {
                    return Some(FnId { file: fi, idx });
                }
                continue;
            };
            let end_line = f.tokens.get(close).map_or(u32::MAX, |t| t.line);
            if (func.line..=end_line).contains(&line) {
                let width = end_line - func.line;
                if best.is_none_or(|(w, _)| width <= w) {
                    best = Some((width, FnId { file: fi, idx }));
                }
            }
        }
        best.map(|(_, id)| id)
    }

    /// `Owner::name` or `name` — the symbol path used in diagnostics
    /// and the v2 report.
    pub fn fn_path(&self, id: FnId) -> String {
        let f = self.fn_item(id);
        match &f.owner {
            Some(o) => format!("{o}::{}", f.name),
            None => f.name.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enclosing_fn_by_line() {
        let files = vec![File::new(
            "crates/core/src/a.rs",
            "struct S;\nimpl S {\n    fn m(&self) {\n        let x = 1;\n    }\n}\nfn free() {\n}\n",
        )];
        let m = Model::build(&files);
        let id = m.enclosing_fn(0, 4).unwrap();
        assert_eq!(m.fn_path(id), "S::m");
        let id = m.enclosing_fn(0, 8).unwrap();
        assert_eq!(m.fn_path(id), "free");
        assert!(m.enclosing_fn(0, 1).is_none());
    }
}
