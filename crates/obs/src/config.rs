//! Observability configuration block.

use bpp_json::{Json, ToJson};

/// Knobs for the observability layer. Disabled by default so that every
/// committed golden stays byte-identical; when `enabled` is false no
/// instrumentation state is allocated and no `obs` section is emitted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObsConfig {
    /// Master switch; everything below is inert when false.
    pub enabled: bool,
    /// Initial bucket width (simulated seconds) for timeline series.
    pub timeline_stride: f64,
    /// Record each broadcast disk's cumulative share of push slots as
    /// per-slot timelines (`broadcast.disk<k>.share`), padding included —
    /// padding is bandwidth charged to its disk. Off by default; the JSON
    /// key is omitted entirely while false so older configs and goldens
    /// stay byte-identical.
    pub disk_share: bool,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            enabled: false,
            timeline_stride: 100.0,
            disk_share: false,
        }
    }
}

impl ObsConfig {
    /// Check the knobs for internal consistency.
    ///
    /// `timeline_stride` must be finite and positive (it seeds timeline
    /// bucket widths).
    pub fn validate(&self) -> Result<(), String> {
        let ObsConfig {
            enabled: _,
            timeline_stride,
            // Boolean toggle: no value of it is inconsistent.
            disk_share: _,
        } = *self;
        if !(timeline_stride.is_finite() && timeline_stride > 0.0) {
            return Err(format!(
                "timeline_stride must be finite and positive, got {timeline_stride}"
            ));
        }
        Ok(())
    }
}

impl ToJson for ObsConfig {
    fn to_json(&self) -> Json {
        let ObsConfig {
            enabled,
            timeline_stride,
            disk_share,
        } = *self;
        let mut members = vec![
            ("enabled", enabled.to_json()),
            ("timeline_stride", timeline_stride.to_json()),
        ];
        if disk_share {
            members.push(("disk_share", disk_share.to_json()));
        }
        Json::object(members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled_and_valid() {
        let cfg = ObsConfig::default();
        assert!(!cfg.enabled);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn json_round_trips() {
        let cfg = ObsConfig {
            enabled: true,
            timeline_stride: 50.0,
            disk_share: true,
        };
        assert_eq!(
            bpp_json::to_string(&cfg),
            r#"{"enabled":true,"timeline_stride":50.0,"disk_share":true}"#
        );
    }

    #[test]
    fn disabled_disk_share_emits_no_key() {
        let cfg = ObsConfig {
            enabled: true,
            ..ObsConfig::default()
        };
        assert_eq!(
            bpp_json::to_string(&cfg),
            r#"{"enabled":true,"timeline_stride":100.0}"#
        );
    }

    #[test]
    fn validate_rejects_bad_stride() {
        let mut cfg = ObsConfig {
            timeline_stride: 0.0,
            ..ObsConfig::default()
        };
        assert!(cfg.validate().is_err());
        cfg.timeline_stride = f64::INFINITY;
        assert!(cfg.validate().is_err());
    }
}
