(* The export audit (see export_audit.ml): its core on hand-built inputs,
   then the audit of this workspace against test/exports_allowlist. *)

open Export_audit

let names es = List.map (fun e -> e.name) es
let check_names = Alcotest.(check (list string))
let lib_ref ?(test = false) from path = { from; test; path }

let test_unlisted_dead_export () =
  let exports = [ export ~unit:"Sim__Rng" [ "int" ]; export ~unit:"Sim__Rng" [ "shuffle" ] ] in
  let refs = [ lib_ref "Rolis__Client" "Sim.Rng.int" ] in
  let v = audit ~exports ~refs ~allowlist:[] in
  check_names "the unused export fails" [ "Sim.Rng.shuffle" ] (names v.unlisted);
  check_names "listed, it passes" []
    (names (audit ~exports ~refs ~allowlist:[ ("Sim.Rng.shuffle", Hook) ]).unlisted)

let test_test_use_is_not_a_use () =
  let exports = [ export ~unit:"Paxos__Stream" [ "retained_slots" ] ] in
  let refs =
    [
      lib_ref ~test:true "Dune__exe__Test_paxos" "Paxos.Stream.retained_slots";
      (* the defining unit's own use does not count either *)
      lib_ref "Paxos__Stream" "Paxos__Stream.retained_slots";
    ]
  in
  check_names "a test/ reference alone leaves it unlisted" [ "Paxos.Stream.retained_slots" ]
    (names (audit ~exports ~refs ~allowlist:[]).unlisted)

let test_stale_allowlist_line () =
  let exports = [ export ~unit:"Store__Btree" [ "check_invariants" ] ] in
  let refs = [ lib_ref "Rolis__Replica" "Store.Btree.check_invariants" ] in
  let v =
    audit ~exports ~refs
      ~allowlist:[ ("Store.Btree.check_invariants", Invariant); ("Store.Btree.seek", Hook) ]
  in
  Alcotest.(check (list (pair string string)))
    "a used value and a gone value are both stale"
    [
      ("Store.Btree.check_invariants", "now used by Rolis.Replica");
      ("Store.Btree.seek", "no longer exported");
    ]
    v.stale

let test_submodule_through_alias () =
  let exports = [ export ~unit:"Sim__Sync" [ "Mailbox"; "recv" ] ] in
  Alcotest.(check string) "export name" "Sim.Sync.Mailbox.recv" (List.hd exports).name;
  List.iter
    (fun path ->
      check_names path []
        (names (audit ~exports ~refs:[ lib_ref "Rolis__Replica" path ] ~allowlist:[]).unlisted))
    [ "Sim.Sync.Mailbox.recv"; "Sim__Sync.Mailbox.recv" ]

let test_allowlist_format () =
  Alcotest.(check (list (pair string string)))
    "parsed"
    [ ("Store.Btree.check_invariants", "invariant") ]
    (List.map
       (fun (n, r) -> (n, string_of_reason r))
       (parse_allowlist [ "Store.Btree.check_invariants invariant"; "" ]));
  List.iter
    (fun lines ->
      match parse_allowlist lines with
      | _ -> Alcotest.failf "accepted %S" (String.concat "\\n" lines)
      | exception Failure _ -> ())
    [ [ "Sim.Rng.int convenient" ]; [ "Sim.Rng.int" ]; [ "Sim.Rng.int hook"; "Sim.Rng.int hook" ] ]

(* The workspace audit. The test runs in _build/default/test after
   [alias_rec check] (see test/dune), so every .cmt/.cmti is fresh. *)
let test_workspace () =
  let exports, refs = load ".." in
  let lines = In_channel.with_open_text "exports_allowlist" In_channel.input_all in
  let allowlist = parse_allowlist (String.split_on_char '\n' lines) in
  if List.length exports < 100 then Alcotest.failf "only %d exports found" (List.length exports);
  let v = audit ~exports ~refs ~allowlist in
  List.iter
    (fun e -> Printf.printf "unlisted: %s (no user outside %s and test/)\n" e.name e.unit)
    v.unlisted;
  List.iter (fun (n, why) -> Printf.printf "stale allowlist line: %s (%s)\n" n why) v.stale;
  let count r = List.length (List.filter (fun (_, r') -> r' = r) allowlist) in
  Printf.printf "%d exports; allowlist %d (hook %d, reference %d, invariant %d)\n"
    (List.length exports) (List.length allowlist) (count Hook) (count Reference)
    (count Invariant);
  Alcotest.(check int) "unlisted exports" 0 (List.length v.unlisted);
  Alcotest.(check int) "stale allowlist lines" 0 (List.length v.stale)

let () =
  Alcotest.run "exports"
    [
      ( "core",
        [
          Alcotest.test_case "unlisted dead export fails" `Quick test_unlisted_dead_export;
          Alcotest.test_case "test/ use is not a use" `Quick test_test_use_is_not_a_use;
          Alcotest.test_case "stale allowlist line fails" `Quick test_stale_allowlist_line;
          Alcotest.test_case "submodule through library alias" `Quick
            test_submodule_through_alias;
          Alcotest.test_case "allowlist format" `Quick test_allowlist_format;
        ] );
      ("audit", [ Alcotest.test_case "workspace exports" `Quick test_workspace ]);
    ]
