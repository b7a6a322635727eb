//! Suppression hygiene (UF000's job for the migrated rules).

#[allow(clippy::unwrap_used)] // line 3: allow_attributes, allow_attributes_without_reason
pub fn reasonless(v: &[u32]) -> u32 {
    *v.first().unwrap()
}
