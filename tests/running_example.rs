//! End-to-end integration test: the paper's running example (Sect. 2,
//! Figs. 2–5) replayed through the full stack — BeliefSQL text → parser →
//! BDMS → relational encoding → Algorithm 1 queries — with every
//! intermediate artefact checked against the paper.

use beliefdb::core::{
    closure, running_example, Bdms, BeliefPath, BeliefStatement, CanonicalKripke, DefaultPolicy,
    GroundTuple, Sign, UserId,
};
use beliefdb::sql::Session;
use beliefdb::storage::{row, Value};

fn sql_session() -> Session {
    sql_session_under(DefaultPolicy::default())
}

fn sql_session_under(policy: DefaultPolicy) -> Session {
    let schema = beliefdb::core::naturemapping_schema();
    let mut s = Session::from_bdms(Bdms::with_policy(schema, policy).unwrap());
    s.add_user("Alice").unwrap();
    s.add_user("Bob").unwrap();
    s.add_user("Carol").unwrap();
    for sql in [
        "insert into Sightings values ('s1','Carol','bald eagle','6-14-08','Lake Forest')",
        "insert into BELIEF 'Bob' not Sightings values ('s1','Carol','bald eagle','6-14-08','Lake Forest')",
        "insert into BELIEF 'Bob' not Sightings values ('s1','Carol','fish eagle','6-14-08','Lake Forest')",
        "insert into BELIEF 'Alice' Sightings values ('s2','Alice','crow','6-14-08','Lake Placid')",
        "insert into BELIEF 'Alice' Comments values ('c1','found feathers','s2')",
        "insert into BELIEF 'Bob' Sightings values ('s2','Alice','raven','6-14-08','Lake Placid')",
        "insert into BELIEF 'Bob' BELIEF 'Alice' Comments values ('c2','black feathers','s2')",
        "insert into BELIEF 'Bob' Comments values ('c2','purple-black feathers','s2')",
    ] {
        s.execute(sql).unwrap();
    }
    s
}

#[test]
fn fig5_internal_representation_shape() {
    // Fig. 5 draws the `Eager` representation; under `Lazy` only `V`
    // differs, holding the eight explicit statements.
    let lazy = sql_session();
    let session = sql_session_under(DefaultPolicy::Eager);
    let storage = session.bdms().storage();
    // Fig. 5's tables: Sightings* has 4 ground tuples, Comments* has 3.
    assert_eq!(storage.table("Sightings__star").unwrap().len(), 4);
    assert_eq!(storage.table("Comments__star").unwrap().len(), 3);
    // Users: 3 rows; D: 4 worlds (ε, Alice, Bob, Bob·Alice); S: 3 backlinks.
    // The world directory holds the world relations; the size report
    // counts their rows.
    let stats = session.bdms().stats();
    let size = |name: &str| stats.per_table.iter().find(|(n, _)| n == name).unwrap().1;
    assert_eq!(storage.table("U").unwrap().len(), 3);
    assert_eq!(size("D"), 4);
    assert_eq!(size("S"), 3);
    // E: 9 edges as drawn in Fig. 4 / listed in Fig. 5.
    assert_eq!(size("E"), 9);
    // V_Sightings in Fig. 5 has 8 rows; V_Comments has 4.
    assert_eq!(storage.table("V__Sightings").unwrap().len(), 8);
    assert_eq!(storage.table("V__Comments").unwrap().len(), 4);
    let sizes = |s: &Session| s.bdms().stats().per_table;
    let (lazy_sizes, eager_sizes) = (sizes(&lazy), sizes(&session));
    for ((name, n), (eager_name, eager_n)) in lazy_sizes.iter().zip(&eager_sizes) {
        assert_eq!(name, eager_name);
        match name.as_str() {
            "V__Sightings" => assert_eq!(*n, 5),
            "V__Comments" => assert_eq!(*n, 3),
            _ => assert_eq!(n, eager_n, "{name}"),
        }
    }
}

#[test]
fn fig3_bobs_belief_world() {
    let session = sql_session();
    let bob = session.bdms().user_by_name("Bob").unwrap();
    let world = session.bdms().world(&BeliefPath::user(bob)).unwrap();
    let s = session.bdms().schema().relation_id("Sightings").unwrap();
    let c = session.bdms().schema().relation_id("Comments").unwrap();
    // Fig. 3: two negative sightings (s1), one positive (s2 raven), one
    // positive comment (purple-black).
    assert!(world.contains_neg(&GroundTuple::new(
        s,
        row!["s1", "Carol", "bald eagle", "6-14-08", "Lake Forest"]
    )));
    assert!(world.contains_neg(&GroundTuple::new(
        s,
        row!["s1", "Carol", "fish eagle", "6-14-08", "Lake Forest"]
    )));
    assert!(world.contains_pos(&GroundTuple::new(
        s,
        row!["s2", "Alice", "raven", "6-14-08", "Lake Placid"]
    )));
    assert!(world.contains_pos(&GroundTuple::new(
        c,
        row!["c2", "purple-black feathers", "s2"]
    )));
    assert_eq!(world.pos_len(), 2);
    assert_eq!(world.neg_len(), 2);
}

#[test]
fn sect_3_2_entailments_through_the_store() {
    let session = sql_session();
    let bdms = session.bdms();
    let s = bdms.schema().relation_id("Sightings").unwrap();
    let alice = bdms.user_by_name("Alice").unwrap();
    let bob = bdms.user_by_name("Bob").unwrap();
    let s11 = GroundTuple::new(
        s,
        row!["s1", "Carol", "bald eagle", "6-14-08", "Lake Forest"],
    );

    // D |= Alice s1+ (default), D |= Bob s1− (explicit),
    // D |= Bob·Alice s1+ (Bob believes Alice believes it).
    let cases = [
        (BeliefPath::user(alice), Sign::Pos, true),
        (BeliefPath::user(bob), Sign::Neg, true),
        (BeliefPath::user(bob), Sign::Pos, false),
        (BeliefPath::new(vec![bob, alice]).unwrap(), Sign::Pos, true),
        (BeliefPath::new(vec![alice, bob]).unwrap(), Sign::Neg, true),
    ];
    for (path, sign, expected) in cases {
        let stmt = BeliefStatement::new(path.clone(), s11.clone(), sign);
        assert_eq!(
            bdms.entails(&stmt).unwrap(),
            expected,
            "at {path} sign {sign}"
        );
    }
}

#[test]
fn store_and_logical_pipelines_agree_everywhere() {
    // Build the same database twice: via SQL/store and via the logical API;
    // compare worlds, Kripke structures, and entailments.
    let session = sql_session();
    let (logical, ..) = running_example();

    let from_store = session.bdms().to_belief_database().unwrap();
    assert_eq!(from_store.statements(), logical.statements());

    let kripke = CanonicalKripke::build(&logical);
    assert_eq!(kripke.state_count(), 4);

    for p in logical.states() {
        let store_world = session.bdms().world(&p).unwrap();
        let closure_world = closure::entailed_world(&logical, &p);
        let kripke_world = kripke.world_of(kripke.resolve(&p)).clone();
        assert_eq!(store_world, closure_world, "store vs closure at {p}");
        assert_eq!(kripke_world, closure_world, "kripke vs closure at {p}");
    }
}

#[test]
fn queries_q1_q2_sql_vs_bcq_vs_naive() {
    let session = sql_session();
    let q1 = session
        .query(
            "select S.sid, S.uid, S.species \
             from Users as U, BELIEF U.uid Sightings as S \
             where U.name = 'Bob' and S.location = 'Lake Placid'",
        )
        .unwrap();
    assert_eq!(q1.rows(), &[row!["s2", "Alice", "raven"]]);

    let q2 = session
        .query(
            "select U2.name, S1.species, S2.species \
             from Users as U1, Users as U2, \
                  BELIEF U1.uid Sightings as S1, BELIEF U2.uid Sightings as S2 \
             where U1.name = 'Alice' and S1.sid = S2.sid and S1.species <> S2.species",
        )
        .unwrap();
    assert_eq!(q2.rows(), &[row!["Bob", "crow", "raven"]]);
}

#[test]
fn dora_joins_late() {
    // Sect. 3.2: "the system needs to assume by default that Dora believes
    // everything that is stated explicitly in the database".
    let mut session = sql_session();
    session.add_user("Dora").unwrap();
    let bdms = session.bdms();
    let dora = bdms.user_by_name("Dora").unwrap();
    let bob = bdms.user_by_name("Bob").unwrap();
    let s = bdms.schema().relation_id("Sightings").unwrap();
    let s11 = GroundTuple::new(
        s,
        row!["s1", "Carol", "bald eagle", "6-14-08", "Lake Forest"],
    );

    // Dora believes the sighting, and believes Bob disbelieves it.
    assert!(bdms
        .entails(&BeliefStatement::positive(
            BeliefPath::user(dora),
            s11.clone()
        ))
        .unwrap());
    assert!(bdms
        .entails(&BeliefStatement::negative(
            BeliefPath::new(vec![dora, bob]).unwrap(),
            s11.clone()
        ))
        .unwrap());

    // Dora later explicitly disagrees: her default flips, but her view of
    // everyone else is untouched.
    session
        .execute(
            "insert into BELIEF 'Dora' not Sightings values \
             ('s1','Carol','bald eagle','6-14-08','Lake Forest')",
        )
        .unwrap();
    let bdms = session.bdms();
    assert!(!bdms
        .entails(&BeliefStatement::positive(
            BeliefPath::user(dora),
            s11.clone()
        ))
        .unwrap());
    assert!(bdms
        .entails(&BeliefStatement::negative(
            BeliefPath::user(dora),
            s11.clone()
        ))
        .unwrap());
    let alice = bdms.user_by_name("Alice").unwrap();
    assert!(bdms
        .entails(&BeliefStatement::positive(
            BeliefPath::new(vec![dora, alice]).unwrap(),
            s11
        ))
        .unwrap());
}

#[test]
fn i9_alice_offers_fish_eagle_alternative() {
    // Sect. 3.1's i9: Alice adds the fish eagle as an alternative reading of
    // Carol's entry — i1 and i9 are conflicting positive statements in
    // *different* worlds, and Bob disagrees with both.
    let mut session = sql_session();
    session
        .execute(
            "insert into BELIEF 'Alice' Sightings values \
             ('s1','Carol','fish eagle','6-14-08','Lake Forest')",
        )
        .unwrap();
    let bdms = session.bdms();
    let alice = bdms.user_by_name("Alice").unwrap();
    let bob = bdms.user_by_name("Bob").unwrap();
    let s = bdms.schema().relation_id("Sightings").unwrap();
    let bald = GroundTuple::new(
        s,
        row!["s1", "Carol", "bald eagle", "6-14-08", "Lake Forest"],
    );
    let fish = GroundTuple::new(
        s,
        row!["s1", "Carol", "fish eagle", "6-14-08", "Lake Forest"],
    );

    // Alice now believes the fish eagle; the bald eagle became an unstated
    // negative for her.
    assert!(bdms
        .entails(&BeliefStatement::positive(
            BeliefPath::user(alice),
            fish.clone()
        ))
        .unwrap());
    assert!(bdms
        .entails(&BeliefStatement::negative(
            BeliefPath::user(alice),
            bald.clone()
        ))
        .unwrap());
    // Bob still explicitly rejects both.
    assert!(bdms
        .entails(&BeliefStatement::negative(BeliefPath::user(bob), fish))
        .unwrap());
    assert!(bdms
        .entails(&BeliefStatement::negative(BeliefPath::user(bob), bald))
        .unwrap());
}

#[test]
fn world_ids_are_stable_and_root_is_zero() {
    let session = sql_session();
    let dir = session.bdms().internal().directory();
    assert_eq!(dir.get(&BeliefPath::root()), Some(beliefdb::core::Wid(0)));
    assert_eq!(dir.len(), 4);
    // uids follow registration order (U = {1, ..., m}).
    assert_eq!(session.bdms().user_by_name("Alice").unwrap(), UserId(1));
    assert_eq!(session.bdms().user_by_name("Carol").unwrap(), UserId(3));
}

#[test]
fn belief_world_values_render_like_the_paper() {
    let session = sql_session();
    let bob = session.bdms().user_by_name("Bob").unwrap();
    let world = session.bdms().world(&BeliefPath::user(bob)).unwrap();
    let shown = world.to_string();
    assert!(shown.contains("raven"));
    assert!(shown.contains("+"));
    assert!(shown.contains("-"));
    // Sign values match Fig. 5's s attribute.
    assert_eq!(Sign::Pos.value(), Value::str("+"));
    assert_eq!(Sign::Neg.value(), Value::str("-"));
}
