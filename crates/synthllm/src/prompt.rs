//! A parsed prompt and the model work that depends on nothing else.
//!
//! The tournament asks the model about one prompt many times: every
//! example arm, feedback pass and repair iteration diagnoses the same
//! code and re-applies the same strategies. [`diagnose`] and
//! [`strategy::apply`] are pure functions of the prompt and their
//! arguments, so a [`Prompt`] computes each of them once per distinct
//! input and answers repeats from its cache. Every request is still made
//! (and counted by the caller); only the work behind it is shared.

use crate::diagnose::{diagnose, Diagnosis, Target};
use crate::strategy::{self, StrategyKind};
use std::borrow::Cow;
use std::cell::{OnceCell, RefCell};

/// One rendered application: `(strategy, target, botch)` and the printed
/// patched file, or the reason the strategy did not apply.
type Render = (StrategyKind, Target, u8, Result<String, String>);

/// A prompt's parse plus its per-prompt model cache. The model's
/// [`enumerate`](crate::SynthLlm::enumerate) and
/// [`repair`](crate::SynthLlm::repair) take one; build it once per
/// prompt and pass it to every request on that prompt.
#[derive(Debug)]
pub struct Prompt<'a> {
    file: Cow<'a, golite::File>,
    /// The racy variable of the first diagnosis asked for, and its result.
    diagnoses: OnceCell<(String, Vec<Diagnosis>)>,
    /// Every `apply` + `print_file` rendered so far.
    renders: RefCell<Vec<Render>>,
    /// The prompt itself, printed.
    printed: OnceCell<String>,
}

impl<'a> Prompt<'a> {
    /// Wraps a parsed prompt, owned or borrowed.
    pub fn new(file: Cow<'a, golite::File>) -> Self {
        Prompt {
            file,
            diagnoses: OnceCell::new(),
            renders: RefCell::new(Vec::new()),
            printed: OnceCell::new(),
        }
    }

    /// The prompt's parse.
    pub fn file(&self) -> &golite::File {
        &self.file
    }

    /// `diagnose(file, racy_var)`, computed once for the first racy
    /// variable asked about (a prompt names one race); any other variable
    /// is diagnosed afresh.
    pub(crate) fn diagnoses(&self, racy_var: &str) -> Cow<'_, [Diagnosis]> {
        let (var, diags) = self
            .diagnoses
            .get_or_init(|| (racy_var.to_owned(), diagnose(&self.file, racy_var)));
        if var == racy_var {
            Cow::Borrowed(diags)
        } else {
            Cow::Owned(diagnose(&self.file, racy_var))
        }
    }

    /// `strategy::apply` on the prompt, printed: the revised code, or why
    /// the strategy does not apply. Rendered once per distinct
    /// `(kind, target, botch)`.
    pub(crate) fn render(
        &self,
        kind: StrategyKind,
        target: &Target,
        botch: u8,
    ) -> Result<String, String> {
        let hit = |r: &&Render| r.0 == kind && r.1 == *target && r.2 == botch;
        if let Some(r) = self.renders.borrow().iter().find(hit) {
            return r.3.clone();
        }
        let out = strategy::apply(kind, &self.file, target, botch).map(|f| golite::print_file(&f));
        let render = (kind, target.clone(), botch, out.clone());
        self.renders.borrow_mut().push(render);
        out
    }

    /// The prompt printed unchanged (the mis-localised no-op answer).
    pub(crate) fn printed(&self) -> &str {
        self.printed.get_or_init(|| golite::print_file(&self.file))
    }
}
