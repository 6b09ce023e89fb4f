//! Stripe geometry: mapping logical file offsets to member-disk extents.
//!
//! A striped file's logical byte space is cut into `chunk` sized pieces and
//! dealt round-robin across the members: logical chunk `c` lives on member
//! `c % width` at member-relative chunk `c / width`. One *stride* is one
//! chunk from every member (Figure 5 of the paper) — `width × chunk` logical
//! bytes that can move in parallel at the sum of member bandwidths.

use alphasort_minijson::{Json, JsonError};

/// One member extent of a striped file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Member {
    /// Index of the disk (within the owning engine/array) holding this member.
    pub disk: usize,
    /// Physical byte offset of the member extent on that disk.
    pub base: u64,
}

impl Member {
    /// JSON form, as the scratch run manifest stores it.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("disk".into(), Json::from(self.disk)),
            ("base".into(), Json::from(self.base)),
        ])
    }

    /// Rebuild from the JSON form.
    pub fn from_json(v: &Json) -> Result<Member, JsonError> {
        Ok(Member {
            disk: v.field_u64("disk")? as usize,
            base: v.field_u64("base")?,
        })
    }
}

/// The geometry of one striped file.
#[derive(Clone, Debug, PartialEq)]
pub struct StripeDef {
    /// Human name of the file (the paper's descriptor-file name).
    pub name: String,
    /// Bytes each member contributes to one stride ("blocks per stride").
    pub chunk: u64,
    /// Member extents, in round-robin order.
    pub members: Vec<Member>,
    /// Current logical length in bytes.
    pub len: u64,
}

/// A physical segment some logical range maps onto.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Member index within [`StripeDef::members`].
    pub member: usize,
    /// Physical offset on the member's disk.
    pub phys: u64,
    /// Offset of this segment's bytes within the caller's buffer.
    pub buf_off: usize,
    /// Segment length in bytes.
    pub len: usize,
}

impl StripeDef {
    /// Create a fresh definition.
    pub fn new(name: impl Into<String>, chunk: u64, members: Vec<Member>) -> Self {
        assert!(chunk > 0, "chunk size must be positive");
        assert!(!members.is_empty(), "a stripe needs at least one member");
        StripeDef {
            name: name.into(),
            chunk,
            members,
            len: 0,
        }
    }

    /// Stripe width (number of member disks).
    pub fn width(&self) -> usize {
        self.members.len()
    }

    /// Bytes in one full stride: `width × chunk`.
    pub fn stride(&self) -> u64 {
        self.chunk * self.width() as u64
    }

    /// Map one logical offset to (member index, physical disk offset).
    pub fn locate(&self, logical: u64) -> (usize, u64) {
        let chunk_no = logical / self.chunk;
        let within = logical % self.chunk;
        let member = (chunk_no % self.width() as u64) as usize;
        let member_chunk = chunk_no / self.width() as u64;
        let phys = self.members[member].base + member_chunk * self.chunk + within;
        (member, phys)
    }

    /// Break the logical range `[offset, offset + len)` into maximal
    /// physically-contiguous segments, in logical order.
    pub fn plan(&self, offset: u64, len: usize) -> Vec<Segment> {
        let mut segs = Vec::new();
        let mut logical = offset;
        let end = offset + len as u64;
        while logical < end {
            let (member, phys) = self.locate(logical);
            // A segment may not cross a chunk boundary.
            let room_in_chunk = self.chunk - logical % self.chunk;
            let seg_len = room_in_chunk.min(end - logical) as usize;
            segs.push(Segment {
                member,
                phys,
                buf_off: (logical - offset) as usize,
                len: seg_len,
            });
            logical += seg_len as u64;
        }
        segs
    }

    /// Bytes of member extent needed on each disk to hold `file_len` logical
    /// bytes (i.e. the per-member extent size to reserve), saturating at
    /// `u64::MAX` for a length no disk could hold.
    pub fn member_extent(&self, file_len: u64) -> u64 {
        let full_chunks = file_len / self.chunk;
        let tail = file_len % self.chunk;
        // The worst-loaded member holds ceil(chunks / width) chunks.
        let chunks = full_chunks + u64::from(tail > 0);
        chunks
            .div_ceil(self.width() as u64)
            .saturating_mul(self.chunk)
    }

    /// JSON form, as the scratch run manifest stores it.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::from(self.name.as_str())),
            ("chunk".into(), Json::from(self.chunk)),
            (
                "members".into(),
                Json::Arr(self.members.iter().map(Member::to_json).collect()),
            ),
            ("len".into(), Json::from(self.len)),
        ])
    }

    /// Rebuild from the JSON form.
    pub fn from_json(v: &Json) -> Result<StripeDef, JsonError> {
        let members = v
            .field_arr("members")?
            .iter()
            .map(Member::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        if members.is_empty() {
            return Err(JsonError::new("stripe descriptor has no members"));
        }
        let chunk = v.field_u64("chunk")?;
        if chunk == 0 {
            return Err(JsonError::new("stripe descriptor has zero chunk"));
        }
        let mut def = StripeDef::new(v.field_str("name")?, chunk, members);
        def.len = v.field_u64("len")?;
        Ok(def)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def3() -> StripeDef {
        StripeDef::new(
            "t",
            10,
            vec![
                Member { disk: 0, base: 100 },
                Member { disk: 1, base: 200 },
                Member { disk: 2, base: 300 },
            ],
        )
    }

    #[test]
    fn locate_round_robins_chunks() {
        let d = def3();
        assert_eq!(d.locate(0), (0, 100)); // chunk 0 → member 0
        assert_eq!(d.locate(9), (0, 109));
        assert_eq!(d.locate(10), (1, 200)); // chunk 1 → member 1
        assert_eq!(d.locate(20), (2, 300)); // chunk 2 → member 2
        assert_eq!(d.locate(30), (0, 110)); // chunk 3 wraps to member 0, next chunk
        assert_eq!(d.locate(35), (0, 115));
    }

    #[test]
    fn stride_is_width_times_chunk() {
        assert_eq!(def3().stride(), 30);
    }

    #[test]
    fn plan_covers_range_without_gaps() {
        let d = def3();
        let segs = d.plan(5, 40); // crosses several chunks
        let total: usize = segs.iter().map(|s| s.len).sum();
        assert_eq!(total, 40);
        // buf offsets are contiguous and ordered.
        let mut expect = 0;
        for s in &segs {
            assert_eq!(s.buf_off, expect);
            expect += s.len;
        }
        // First segment is the tail of chunk 0 on member 0.
        assert_eq!(
            segs[0],
            Segment {
                member: 0,
                phys: 105,
                buf_off: 0,
                len: 5
            }
        );
        // Then whole chunks on members 1, 2, 0…
        assert_eq!(segs[1].member, 1);
        assert_eq!(segs[2].member, 2);
        assert_eq!(segs[3].member, 0);
    }

    #[test]
    fn plan_within_one_chunk_is_single_segment() {
        let d = def3();
        let segs = d.plan(12, 5);
        assert_eq!(
            segs,
            vec![Segment {
                member: 1,
                phys: 202,
                buf_off: 0,
                len: 5
            }]
        );
    }

    #[test]
    fn member_extent_accounts_for_uneven_tail() {
        let d = def3();
        // 65 bytes = 7 chunks (last partial); ceil(7/3) = 3 chunks = 30 B.
        assert_eq!(d.member_extent(65), 30);
        assert_eq!(d.member_extent(0), 0);
        assert_eq!(d.member_extent(30), 10);
        assert_eq!(d.member_extent(31), 20);
    }

    #[test]
    fn serde_roundtrip() {
        let d = def3();
        let json = d.to_json().dump();
        let d2 = StripeDef::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(d, d2);
    }

    #[test]
    fn from_json_rejects_degenerate_descriptors() {
        let no_members = r#"{"name": "x", "chunk": 10, "members": [], "len": 0}"#;
        assert!(StripeDef::from_json(&Json::parse(no_members).unwrap()).is_err());
        let zero_chunk =
            r#"{"name": "x", "chunk": 0, "members": [{"disk": 0, "base": 0}], "len": 0}"#;
        assert!(StripeDef::from_json(&Json::parse(zero_chunk).unwrap()).is_err());
    }

    #[test]
    #[should_panic(expected = "chunk size")]
    fn zero_chunk_rejected() {
        StripeDef::new("bad", 0, vec![Member { disk: 0, base: 0 }]);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_members_rejected() {
        StripeDef::new("bad", 10, vec![]);
    }
}
