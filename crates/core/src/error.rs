use hsconas_accuracy::AccuracyError;
use hsconas_evo::EvoError;
use hsconas_space::SpaceError;
use std::fmt;

/// Error type for the end-to-end pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// Search-space failure.
    Space(SpaceError),
    /// Search or objective failure.
    Evo(EvoError),
    /// Accuracy-oracle failure.
    Accuracy(AccuracyError),
    /// Checkpoint persistence or resume failure.
    Ckpt {
        /// Human-readable description of the checkpoint failure.
        detail: String,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Space(e) => write!(f, "space error: {e}"),
            PipelineError::Evo(e) => write!(f, "search error: {e}"),
            PipelineError::Accuracy(e) => write!(f, "accuracy error: {e}"),
            PipelineError::Ckpt { detail } => write!(f, "checkpoint error: {detail}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Space(e) => Some(e),
            PipelineError::Evo(e) => Some(e),
            PipelineError::Accuracy(e) => Some(e),
            PipelineError::Ckpt { .. } => None,
        }
    }
}

/// A supernet build or training failure, reported as an objective error
/// (the search sees the supernet only through its objective).
pub(crate) fn objective_error(detail: String) -> PipelineError {
    PipelineError::Evo(EvoError::Objective { detail })
}

impl From<hsconas_ckpt::CkptError> for PipelineError {
    fn from(e: hsconas_ckpt::CkptError) -> Self {
        PipelineError::Ckpt {
            detail: e.to_string(),
        }
    }
}

impl From<SpaceError> for PipelineError {
    fn from(e: SpaceError) -> Self {
        PipelineError::Space(e)
    }
}

impl From<EvoError> for PipelineError {
    fn from(e: EvoError) -> Self {
        PipelineError::Evo(e)
    }
}

impl From<AccuracyError> for PipelineError {
    fn from(e: AccuracyError) -> Self {
        PipelineError::Accuracy(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        use std::error::Error;
        let e: PipelineError = SpaceError::EmptyCandidates { layer: 2 }.into();
        assert!(e.to_string().contains("space error"));
        assert!(e.source().is_some());
        let e: PipelineError = EvoError::InvalidConfig { detail: "x".into() }.into();
        assert!(e.to_string().contains("search error"));
    }
}
