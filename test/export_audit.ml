(* The export audit: every value a [lib/] interface exports must be used
   by some other compilation unit outside [test/], or be named in
   [test/exports_allowlist] with one of three reasons.

   The pure core ([audit]) works on names. The loader reads what
   [dune build @check] leaves beside each module: the [.cmti] of every
   [lib/] unit gives the exports, and the [.cmt] of every unit in the
   workspace gives the references, one per [Texp_ident]. Typing has
   already resolved [open]s, so a reference prints as the library path
   the source named ([Sim.Sync.Mailbox.recv]) or, rarely, as the
   wrapped unit ([Sim__Sync.Mailbox.recv]); both normalise to the
   export's name. *)

type reason = Hook | Reference | Invariant

let reason_of_string = function
  | "hook" -> Some Hook
  | "reference" -> Some Reference
  | "invariant" -> Some Invariant
  | _ -> None

let string_of_reason = function
  | Hook -> "hook"
  | Reference -> "reference"
  | Invariant -> "invariant"

(* An exported value: [unit] is the wrapped compilation unit that
   defines it ([Sim__Sync]) and [name] its library path
   ([Sim.Sync.Mailbox.recv]). *)
type export = { unit : string; name : string }

(* One [Texp_ident] in unit [from] (a wrapped library unit, or
   [dir/Module] for an executable's module), which lives under [test/]
   when [test] holds; [path] is the identifier as [Path.name] prints
   it. *)
type reference = { from : string; test : bool; path : string }

(* The wrapped unit [Lib__Mod] reads [Lib.Mod]; only the head of a path
   names a unit, so only the head is rewritten. *)
let library_path path =
  let head = Option.value (String.index_opt path '.') ~default:(String.length path) in
  let b = Buffer.create (String.length path) in
  let i = ref 0 in
  while !i < String.length path do
    if !i + 1 < head && path.[!i] = '_' && path.[!i + 1] = '_' then begin
      Buffer.add_char b '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char b path.[!i];
      incr i
    end
  done;
  Buffer.contents b

let export ~unit path = { unit; name = library_path (String.concat "." (unit :: path)) }

type verdict = {
  unlisted : export list;  (** no user outside its unit and [test/], not allowlisted *)
  stale : (string * string) list;  (** allowlist name, why the line must go *)
}

let audit ~exports ~refs ~allowlist =
  let users = Hashtbl.create 1024 in
  List.iter
    (fun r -> if not r.test then Hashtbl.add users (library_path r.path) r.from)
    refs;
  let used e = List.exists (fun u -> u <> e.unit) (Hashtbl.find_all users e.name) in
  let listed = Hashtbl.create 64 in
  List.iter (fun (name, _) -> Hashtbl.replace listed name ()) allowlist;
  let unlisted =
    List.filter (fun e -> (not (used e)) && not (Hashtbl.mem listed e.name)) exports
  in
  let stale =
    List.filter_map
      (fun (name, _) ->
        match List.find_opt (fun e -> e.name = name) exports with
        | None -> Some (name, "no longer exported")
        | Some e when used e ->
            let user = List.find (fun u -> u <> e.unit) (Hashtbl.find_all users name) in
            Some (name, "now used by " ^ library_path user)
        | Some _ -> None)
      allowlist
  in
  { unlisted; stale }

(* One [Unit.value reason] per line; a malformed or repeated line is an
   error, so the list stays a plain, reviewable table. *)
let parse_allowlist lines =
  let seen = Hashtbl.create 64 in
  List.mapi
    (fun i line ->
      let bad why = failwith (Printf.sprintf "exports_allowlist:%d: %s" (i + 1) why) in
      match String.split_on_char ' ' line with
      | [ name; reason ] -> (
          if Hashtbl.mem seen name then bad ("repeated " ^ name);
          Hashtbl.add seen name ();
          match reason_of_string reason with
          | Some r -> (name, r)
          | None -> bad ("reason must be hook, reference or invariant: " ^ line))
      | _ -> bad ("expected `Unit.value reason`: " ^ line))
    (List.filter (fun l -> l <> "") lines)

(* ---------- Loading the workspace's typed trees ---------- *)

let rec files_under dir =
  if not (Sys.file_exists dir) then []
  else
    Array.to_list (Sys.readdir dir)
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files_under p else [ p ])

let unit_of_file f = String.capitalize_ascii (Filename.remove_extension (Filename.basename f))

let rec signature_exports ~unit prefix (sg : Typedtree.signature) =
  List.concat_map
    (fun (item : Typedtree.signature_item) ->
      match item.sig_desc with
      | Tsig_value vd -> [ export ~unit (prefix @ [ vd.val_name.txt ]) ]
      | Tsig_module { md_name = { txt = Some m; _ }; md_type; _ } -> (
          match md_type.mty_desc with
          | Tmty_signature sg -> signature_exports ~unit (prefix @ [ m ]) sg
          | _ -> [])
      | _ -> [])
    sg.sig_items

let exports_of_cmti f =
  match (Cmt_format.read_cmt f).cmt_annots with
  | Interface sg -> signature_exports ~unit:(unit_of_file f) [] sg
  | _ -> []

(* Every value identifier in one implementation. A local module alias
   ([module E = Sim.Engine]) hides [E.now] behind a local name, so the
   audit would miss that use: outside test/, name library values by
   their library path. *)
let references_of_cmt ~dir f =
  match (Cmt_format.read_cmt f).cmt_annots with
  | Implementation str ->
      let test = dir = "test" in
      let from =
        let u = unit_of_file f and exe = "Dune__exe__" in
        if String.starts_with ~prefix:exe u then
          dir ^ "/" ^ String.sub u (String.length exe) (String.length u - String.length exe)
        else u
      in
      let acc = ref [] in
      let open Tast_iterator in
      let it =
        {
          default_iterator with
          expr =
            (fun sub e ->
              (match e.exp_desc with
              | Texp_ident (p, _, _) -> acc := { from; test; path = Path.name p } :: !acc
              | _ -> ());
              default_iterator.expr sub e);
        }
      in
      it.structure it str;
      !acc
  | _ -> []

(* [root] is the build context's root ([_build/default]). Exports come
   from [lib/]; references from every directory that holds code. *)
let load root =
  let under d ext =
    List.filter (fun f -> Filename.check_suffix f ext) (files_under (Filename.concat root d))
  in
  let exports = List.concat_map exports_of_cmti (under "lib" ".cmti") in
  let refs =
    List.concat_map
      (fun dir -> List.concat_map (references_of_cmt ~dir) (under dir ".cmt"))
      [ "lib"; "bin"; "bench"; "perf"; "examples"; "test" ]
  in
  (exports, refs)
