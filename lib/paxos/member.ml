type config = int list

type view = Stable of config | Joint of config * config

let norm c = List.sort_uniq compare c

let stable c =
  match norm c with
  | [] -> invalid_arg "Member.stable: empty membership"
  | c -> Stable c

let joint ~old_ ~new_ =
  match (norm old_, norm new_) with
  | [], _ | _, [] -> invalid_arg "Member.joint: empty membership"
  | o, n -> Joint (o, n)

let voters = function
  | Stable c -> c
  | Joint (o, n) -> norm (o @ n)

let mem view i = List.mem i (voters view)


let majority_of c = (List.length c / 2) + 1

(* Count only acks from actual voters of [c]: ack lists may carry
   non-voting learners (they answer Accepts like everyone else), and a
   quorum that counted them could commit without intersecting the voting
   membership. *)
let config_quorum c acks =
  let hits = List.length (List.filter (fun a -> List.mem a c) acks) in
  hits >= majority_of c

(* The joint-consensus rule: during a C_old,new transition an operation
   needs a majority of *each* configuration, so any two quorums — old
   rule, new rule, or joint — intersect, and two leaders can never be
   elected (or two values chosen) across the switch. *)
let quorum view acks =
  match view with
  | Stable c -> config_quorum c acks
  | Joint (o, n) -> config_quorum o acks && config_quorum n acks

let equal a b =
  match (a, b) with
  | Stable x, Stable y -> x = y
  | Joint (a1, a2), Joint (b1, b2) -> a1 = b1 && a2 = b2
  | Stable _, Joint _ | Joint _, Stable _ -> false

let pp fmt = function
  | Stable c ->
      Format.fprintf fmt "{%s}" (String.concat "," (List.map string_of_int c))
  | Joint (o, n) ->
      Format.fprintf fmt "{%s}+{%s}"
        (String.concat "," (List.map string_of_int o))
        (String.concat "," (List.map string_of_int n))
