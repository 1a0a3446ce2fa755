(* Conjunctive queries over the external relations (Section 5): the
   user-facing query language. A query selects attributes from a set
   of external relation occurrences under a conjunction of equality /
   comparison conditions — the SELECT-FROM-WHERE fragment.

   [to_algebra] translates a query to a relational algebra expression
   over External leaves (projection – selection – left-deep joins),
   the input of optimization Algorithm 1. *)

type source = { rel : string; alias : string }

type t = {
  select : string list; (* qualified "alias.attr" output attributes *)
  from : source list;
  where : Pred.t; (* conditions over "alias.attr" *)
}

let make ~select ~from ~where = { select; from; where }

let source ?alias rel = { rel; alias = Option.value alias ~default:rel }

let alias_of_attr attr =
  match String.index_opt attr '.' with
  | Some i -> String.sub attr 0 i
  | None -> attr

(* Split the WHERE conjunction into equi-join atoms (attr = attr) and
   plain conditions. *)
let split_conditions (where : Pred.t) =
  List.partition
    (fun (a : Pred.atom) ->
      match a.Pred.left, a.Pred.cmp, a.Pred.right with
      | Pred.Attr _, Pred.Eq, Pred.Attr _ -> true
      | _ -> false)
    where

let validate (registry : View.registry) q =
  let errors = ref [] in
  let err fmt = Fmt.kstr (fun m -> errors := m :: !errors) fmt in
  let aliases = List.map (fun s -> s.alias) q.from in
  (match List.sort_uniq String.compare aliases with
  | dedup when List.length dedup <> List.length aliases -> err "duplicate FROM aliases"
  | _ -> ());
  List.iter
    (fun s ->
      match View.find registry s.rel with
      | None -> err "unknown external relation %s" s.rel
      | Some _ -> ())
    q.from;
  let check_attr attr =
    let alias = alias_of_attr attr in
    match List.find_opt (fun s -> String.equal s.alias alias) q.from with
    | None -> err "attribute %s references unknown alias %s" attr alias
    | Some s -> (
      match View.find registry s.rel with
      | None -> ()
      | Some rel ->
        let a = String.sub attr (String.length alias + 1) (String.length attr - String.length alias - 1) in
        if not (List.mem a rel.View.rel_attrs) then
          err "relation %s has no attribute %s" s.rel a)
  in
  List.iter check_attr q.select;
  List.iter check_attr (Pred.attrs q.where);
  List.rev !errors

(* Left-deep join tree in FROM order; equi-join atoms become join keys
   as soon as both sides are available, remaining conditions become a
   selection, outputs become the final projection. *)
let to_algebra q : Nalg.expr =
  let join_atoms, filters = split_conditions q.where in
  match q.from with
  | [] -> invalid_arg "Conjunctive.to_algebra: empty FROM"
  | first :: rest ->
    let joined, used, leftover =
      List.fold_left
        (fun (acc, in_scope, pending) src ->
          let in_scope' = src.alias :: in_scope in
          (* one typed pass: an attr=attr atom whose far side is
             already in scope becomes a key oriented (in-scope side,
             src side); every other shape stays pending. Classifying
             and orienting together leaves no unreachable branch. *)
          let keys, pending' =
            List.partition_map
              (fun (a : Pred.atom) ->
                match a.Pred.left, a.Pred.right with
                | Pred.Attr x, Pred.Attr y
                  when List.mem (alias_of_attr x) in_scope
                       && String.equal (alias_of_attr y) src.alias ->
                  Either.Left (x, y)
                | Pred.Attr x, Pred.Attr y
                  when List.mem (alias_of_attr y) in_scope
                       && String.equal (alias_of_attr x) src.alias ->
                  Either.Left (y, x)
                | (Pred.Attr _ | Pred.Const _), (Pred.Attr _ | Pred.Const _) ->
                  Either.Right a)
              pending
          in
          let right = Nalg.external_ ~alias:src.alias src.rel in
          (Nalg.join keys acc right, in_scope', pending'))
        (Nalg.external_ ~alias:first.alias first.rel, [ first.alias ], join_atoms)
        rest
    in
    ignore used;
    (* join atoms that never became keys (e.g. single-relation query
       with attr = attr) remain as filters *)
    let conds = filters @ leftover in
    let body = if conds = [] then joined else Nalg.select conds joined in
    Nalg.project q.select body

let pp ppf q =
  let pp_src ppf s =
    if String.equal s.rel s.alias then Fmt.string ppf s.rel
    else Fmt.pf ppf "%s %s" s.rel s.alias
  in
  Fmt.pf ppf "SELECT %a FROM %a%a"
    Fmt.(list ~sep:(any ", ") string)
    q.select
    Fmt.(list ~sep:(any ", ") pp_src)
    q.from
    (fun ppf -> function
      | [] -> ()
      | w -> Fmt.pf ppf " WHERE %a" Pred.pp w)
    q.where
