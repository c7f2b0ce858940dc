//! Serialization of set representations through the vendored serde shim.
//!
//! A [`SetRepr`] serializes as a tagged map — `{"kind": ..., "members": ...}`
//! plus the universe for dense bitvectors — so traced set contents can be
//! checked into JSON fixtures and rebuilt bit-for-bit: the universe of dense
//! bitvectors survives the round trip, which keeps `PartialEq` equality
//! exact. The two tags are `"sorted"` and `"dense"`; any other is an error.
//! (The vendored `serde_derive` shim only handles named-field structs, hence
//! the manual impls.)

use crate::{DenseBitVector, SetRepr, SortedVertexArray, Vertex};
use serde::{Content, Deserialize, Error, Serialize};

impl Serialize for SetRepr {
    fn to_content(&self) -> Content {
        let (kind, members) = match self {
            SetRepr::Sorted(s) => ("sorted", s.as_slice().to_vec()),
            SetRepr::Dense(d) => ("dense", d.to_sorted_vec()),
        };
        let mut entries = vec![("kind".to_string(), Content::Str(kind.to_string()))];
        if let SetRepr::Dense(d) = self {
            entries.push(("universe".to_string(), Content::U64(d.universe() as u64)));
        }
        entries.push(("members".to_string(), members.to_content()));
        Content::Map(entries)
    }
}

impl Deserialize for SetRepr {
    fn from_content(content: &Content) -> Result<Self, Error> {
        let kind = content
            .get("kind")
            .ok_or_else(|| Error::custom("set repr without a `kind` tag"))?;
        let kind = String::from_content(kind)?;
        let members = content
            .get("members")
            .ok_or_else(|| Error::custom("set repr without `members`"))?;
        let members = Vec::<Vertex>::from_content(members)?;
        match kind.as_str() {
            "sorted" => {
                if members.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(Error::custom("sorted set repr with unsorted members"));
                }
                Ok(SetRepr::Sorted(SortedVertexArray::from_sorted(members)))
            }
            "dense" => {
                let universe = content
                    .get("universe")
                    .ok_or_else(|| Error::custom("dense set repr without a `universe`"))?;
                let universe = usize::from_content(universe)?;
                if let Some(&v) = members.iter().find(|&&v| v as usize >= universe) {
                    return Err(Error::custom(format!(
                        "dense set member {v} outside universe {universe}"
                    )));
                }
                Ok(SetRepr::Dense(DenseBitVector::from_members(
                    universe, members,
                )))
            }
            other => Err(Error::custom(format!("unknown set repr kind `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_representation_round_trips_exactly() {
        let reprs = [
            SetRepr::sorted_from([1u32, 5, 9]),
            SetRepr::dense_from(32, [0u32, 31, 7]),
            SetRepr::empty_sorted(),
            SetRepr::empty_dense(16),
        ];
        for repr in reprs {
            let back = SetRepr::from_content(&repr.to_content()).unwrap();
            assert_eq!(back, repr);
            assert_eq!(back.kind(), repr.kind());
        }
    }

    #[test]
    fn malformed_content_is_rejected() {
        assert!(SetRepr::from_content(&Content::U64(3)).is_err());
        let missing_kind = Content::Map(vec![("members".into(), Content::Seq(vec![]))]);
        assert!(SetRepr::from_content(&missing_kind).is_err());
        let bad_kind = Content::Map(vec![
            ("kind".into(), Content::Str("mystery".into())),
            ("members".into(), Content::Seq(vec![])),
        ]);
        assert!(SetRepr::from_content(&bad_kind).is_err());
        // `unsorted` names no representation: an unknown tag like any other.
        let retired = Content::Map(vec![
            ("kind".into(), Content::Str("unsorted".into())),
            ("members".into(), vec![9u32, 1, 5].to_content()),
        ]);
        assert!(SetRepr::from_content(&retired).is_err());
        let unsorted_sorted = Content::Map(vec![
            ("kind".into(), Content::Str("sorted".into())),
            ("members".into(), vec![3u32, 1].to_content()),
        ]);
        assert!(SetRepr::from_content(&unsorted_sorted).is_err());
        let out_of_universe = Content::Map(vec![
            ("kind".into(), Content::Str("dense".into())),
            ("universe".into(), Content::U64(4)),
            ("members".into(), vec![9u32].to_content()),
        ]);
        assert!(SetRepr::from_content(&out_of_universe).is_err());
    }
}
