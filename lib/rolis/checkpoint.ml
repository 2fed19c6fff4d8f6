type row = {
  r_key : string;
  r_value : string;
  r_epoch : int;
  r_ts : int;
  r_deleted : bool;
}

type table_image = { t_name : string; t_rows : row array }
type image = { tables : table_image list; bytes : int; rows : int }

(* A live replica's periodic fuzzy checkpoint: the database image plus
   everything a rebuilt replica cannot rederive from the journal tail —
   per-stream cover stamps, the watermark tracker's sealed-epoch history,
   and the client-session dedup table (without which a retry of a
   truncated transaction would re-execute). *)
type replica_image = {
  ri_image : image;
  ri_cover : int array;
  ri_frontier : int array;
  ri_wm : Watermark.snapshot;
  ri_sessions : (int * int * int * int * int) list;
  ri_taken_at : int;
}

let size_bytes img = img.bytes
let row_count img = img.rows

(* Shared, bandwidth-limited disk: each writer holds the disk for the
   transfer time of its burst. *)
let disk_time ~disk_mb_per_s ~bytes =
  int_of_float (float_of_int bytes *. 1e9 /. (float_of_int disk_mb_per_s *. 1e6))

let row_bytes r = 16 + String.length r.r_key + String.length r.r_value

let write db ?(threads = 4) ?(disk_mb_per_s = 500) ?(rows_per_yield = 512)
    ?(live_only = true) () =
  let eng = Silo.Db.engine db in
  let cpu = Silo.Db.cpu db in
  let costs = Silo.Db.costs db in
  let disk = Sim.Sync.Mutex.create eng in
  let tables = Silo.Db.tables db in
  let images = Array.make (List.length tables) None in
  let wg = Sim.Sync.Waitgroup.create eng in
  Sim.Sync.Waitgroup.add wg threads;
  for worker = 0 to threads - 1 do
    ignore
      (Sim.Engine.spawn eng ~name:"checkpointer" (fun () ->
           Sim.Cpu.register cpu;
           List.iteri
             (fun i table ->
               if i mod threads = worker then begin
                 (* Collect the rows instantaneously (the iteration's cost
                    is charged below, burst by burst), then pay scan CPU
                    and disk-write time per burst of rows. *)
                 let rows = ref [] in
                 Store.Table.iter table (fun k (r : Store.Record.t) ->
                     if not (Store.Record.is_deleted r && live_only) then
                       rows :=
                         {
                           r_key = k;
                           r_value = r.value;
                           r_epoch = Store.Record.epoch r;
                           r_ts = Store.Record.ts r;
                           r_deleted = Store.Record.is_deleted r;
                         }
                         :: !rows);
                 let all = Array.of_list (List.rev !rows) in
                 let n = Array.length all in
                 let pos = ref 0 in
                 while !pos < n do
                   let upto = min n (!pos + rows_per_yield) in
                   let bytes = ref 0 in
                   for j = !pos to upto - 1 do
                     bytes := !bytes + row_bytes all.(j)
                   done;
                   Sim.Cpu.consume cpu ((upto - !pos) * costs.Silo.Costs.read_ns);
                   Sim.Sync.Mutex.lock disk;
                   Sim.Engine.sleep (disk_time ~disk_mb_per_s ~bytes:!bytes);
                   Sim.Sync.Mutex.unlock disk;
                   pos := upto
                 done;
                 images.(i) <- Some { t_name = Store.Table.name table; t_rows = all }
               end)
             tables;
           Sim.Cpu.unregister cpu;
           Sim.Sync.Waitgroup.finish wg))
  done;
  Sim.Sync.Waitgroup.wait wg;
  let tables = Array.to_list images |> List.filter_map Fun.id in
  let bytes =
    List.fold_left
      (fun acc t -> Array.fold_left (fun a r -> a + row_bytes r) acc t.t_rows)
      0 tables
  in
  let rows = List.fold_left (fun acc t -> acc + Array.length t.t_rows) 0 tables in
  { tables; bytes; rows }

(* Sorted image install: one sweep per table instead of a per-row point
   lookup ([Store.Table.iter] emits keys ascending for every
   representation, so each [t_rows] run is strictly ascending —
   [apply_sorted_run] dispatches it to a B-tree cursor sweep or hash
   probes as the table demands). Works on fresh and pre-seeded tables
   alike: existing records go through the idempotent (epoch, ts) CAS, so
   installing under concurrent tail replay can never regress a newer
   write — the ARIES install-then-replay contract. *)
let install_table ~into (ti : table_image) =
  let table =
    try Silo.Db.table into ti.t_name
    with Not_found -> Silo.Db.create_table into ti.t_name
  in
  let installed = ref 0 in
  let rows = ti.t_rows in
  ignore
    (Store.Table.apply_sorted_run table
       ~key:(fun i -> rows.(i).r_key)
       ~lo:0 ~hi:(Array.length rows)
       ~f:(fun i existing ->
         let row = rows.(i) in
         let value = if row.r_deleted then None else Some row.r_value in
         match existing with
         | Some (rec_ : Store.Record.t) ->
             let old_len = String.length rec_.value in
             if Store.Record.cas_apply rec_ ~epoch:row.r_epoch ~ts:row.r_ts ~value
             then begin
               incr installed;
               Store.Table.account_growth table
                 (String.length rec_.value - old_len)
             end;
             None
         | None ->
             let rec_ =
               if row.r_deleted then
                 Store.Record.tombstone ~epoch:row.r_epoch ~ts:row.r_ts ()
               else Store.Record.make ~epoch:row.r_epoch ~ts:row.r_ts row.r_value
             in
             incr installed;
             Store.Table.account_growth table
               (Store.Record.byte_size ~key:row.r_key rec_);
             Some rec_));
  !installed

let install ~into img =
  List.fold_left (fun acc ti -> acc + install_table ~into ti) 0 img.tables

(* Virtual-time cost of reading an image back and rebuilding the indexes:
   the disk is shared (reads serialize on it, whatever the thread count)
   and the per-row rebuild CPU parallelises across the loader threads.
   Matches what a [recover] run charges, without requiring the caller to
   block through it — {!Replica} installs state synchronously and pays
   this as an ineligibility window instead. *)
let load_cost ~costs ?(threads = 4) ?(disk_mb_per_s = 500) img =
  let cpu_ns =
    img.rows * (costs.Silo.Costs.write_ns + costs.Silo.Costs.read_ns)
  in
  disk_time ~disk_mb_per_s ~bytes:img.bytes + (cpu_ns / max 1 threads)

let recover ~into ?(threads = 4) ?(disk_mb_per_s = 500) img =
  let eng = Silo.Db.engine into in
  let cpu = Silo.Db.cpu into in
  let costs = Silo.Db.costs into in
  let disk = Sim.Sync.Mutex.create eng in
  (* Create tables up front (ids must be dense before loaders run). *)
  List.iter (fun t -> ignore (Silo.Db.create_table into t.t_name)) img.tables;
  let wg = Sim.Sync.Waitgroup.create eng in
  Sim.Sync.Waitgroup.add wg threads;
  for worker = 0 to threads - 1 do
    ignore
      (Sim.Engine.spawn eng ~name:"ckpt-loader" (fun () ->
           Sim.Cpu.register cpu;
           List.iteri
             (fun i t ->
               if i mod threads = worker then begin
                 let n = Array.length t.t_rows in
                 let pos = ref 0 in
                 while !pos < n do
                   let upto = min n (!pos + 512) in
                   let bytes = ref 0 in
                   for j = !pos to upto - 1 do
                     bytes := !bytes + row_bytes t.t_rows.(j)
                   done;
                   (* One sorted sweep per burst (the rows come off the
                      tree in key order), instead of a fresh root-to-leaf
                      descent per row. The modeled charges are unchanged:
                      disk read for the burst, then index-rebuild CPU. *)
                   ignore
                     (install_table ~into
                        {
                          t_name = t.t_name;
                          t_rows = Array.sub t.t_rows !pos (upto - !pos);
                        });
                   Sim.Sync.Mutex.lock disk;
                   Sim.Engine.sleep (disk_time ~disk_mb_per_s ~bytes:!bytes);
                   Sim.Sync.Mutex.unlock disk;
                   Sim.Cpu.consume cpu
                     ((upto - !pos)
                     * (costs.Silo.Costs.write_ns + costs.Silo.Costs.read_ns));
                   pos := upto
                 done
               end)
             img.tables;
           Sim.Cpu.unregister cpu;
           Sim.Sync.Waitgroup.finish wg))
  done;
  Sim.Sync.Waitgroup.wait wg
