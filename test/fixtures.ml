(* Apps shared by several test suites. *)

(* Random read-modify-write increments over [keys] counters; a payload
   is a decimal key index. *)
let counter_app ~keys =
  let key i = Store.Keycodec.encode [ Store.Keycodec.I i ] in
  let key_of payload = key (int_of_string payload mod keys) in
  Rolis.App.make ~name:"counter"
    ~setup:(fun db ->
      let table = Silo.Db.create_table db "counters" in
      for i = 0 to keys - 1 do
        Store.Table.insert table (key i) (Store.Record.make "0")
      done)
    ~payloads:(fun ~rng ~worker:_ () -> string_of_int (Sim.Rng.int rng keys))
    ~op:(fun db ~payload txn ->
      let table = Silo.Db.table db "counters" in
      let k = key_of payload in
      let v =
        match Silo.Txn.get txn table k with
        | Some s -> int_of_string s
        | None -> 0
      in
      Silo.Txn.put txn table k (string_of_int (v + 1)))
    ~read_op:(fun db ~payload snap ->
      let table = Silo.Db.table db "counters" in
      match Silo.Db.snap_get snap table (key_of payload) with
      | Some s -> s
      | None -> "0")
    ()
