type t = {
  name : string;
  setup : Silo.Db.t -> unit;
  make_worker : Silo.Db.t -> rng:Sim.Rng.t -> worker:int -> Silo.Txn.t -> unit;
  client_op : (Silo.Db.t -> payload:string -> Silo.Txn.t -> unit) option;
  read_op : (Silo.Db.t -> payload:string -> Silo.Db.snap -> string) option;
}

let make ~name ~setup ~payloads ~op ?read_op () =
  {
    name;
    setup;
    make_worker =
      (fun db ~rng ~worker ->
        let next = payloads ~rng ~worker and op = op db in
        fun txn -> op ~payload:(next ()) txn);
    client_op = Some op;
    read_op;
  }

let counter_app ~keys =
  let key i = Store.Keycodec.encode [ Store.Keycodec.I i ] in
  let key_of payload = key (int_of_string payload mod keys) in
  make ~name:"counter"
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
