(* Rule 2 in the positive: a join whose predicate is a link constraint
   towards an entry point is a follow. The university scheme has no
   such constraint, so this suite builds a two-scheme mini site: item
   pages all link back to the (single) home page, repeating its
   SiteName. *)

open Webviews

(* Apply a rule that reads subexpression properties through a fresh
   planning memo. *)
let on_memo rule schema e =
  let m = Memo.create schema (Stats.create ()) in
  rule m (Memo.intern m e)

let mini_schema =
  let open Adm in
  let home =
    Page_scheme.make ~entry_url:"/home" "MiniHome"
      [
        Page_scheme.attr "SiteName" Webtype.Text;
        Page_scheme.attr "Items"
          (Webtype.List [ ("IName", Webtype.Text); ("ToItem", Webtype.Link "MiniItem") ]);
      ]
  in
  let item =
    Page_scheme.make "MiniItem"
      [
        Page_scheme.attr "IName" Webtype.Text;
        Page_scheme.attr "SiteName" Webtype.Text;
        Page_scheme.attr "ToHome" (Webtype.Link "MiniHome");
      ]
  in
  let p = Constraints.path in
  Schema.make ~name:"mini"
    ~schemes:[ home; item ]
    ~link_constraints:
      [
        Constraints.link_constraint
          ~link:(p "MiniHome" [ "Items"; "ToItem" ])
          ~source_attr:(p "MiniHome" [ "Items"; "IName" ])
          ~target_scheme:"MiniItem" ~target_attr:"IName";
        (* the rule-2 enabler: item pages repeat the home page's name *)
        Constraints.link_constraint
          ~link:(p "MiniItem" [ "ToHome" ])
          ~source_attr:(p "MiniItem" [ "SiteName" ])
          ~target_scheme:"MiniHome" ~target_attr:"SiteName";
      ]
    ~inclusions:[]

let build_mini_site () =
  let site = Websim.Site.create () in
  let item_url i = Fmt.str "/item%d" i in
  let items = [ 1; 2; 3 ] in
  Websim.Site.put site ~url:"/home"
    ~body:
      (Websim.Wrapper.render ~title:"home"
         [
           ("SiteName", Adm.Value.text "mini");
           ( "Items",
             Adm.Value.Rows
               (List.map
                  (fun i ->
                    [
                      ("IName", Adm.Value.text (Fmt.str "item%d" i));
                      ("ToItem", Adm.Value.link (item_url i));
                    ])
                  items) );
         ]);
  List.iter
    (fun i ->
      Websim.Site.put site ~url:(item_url i)
        ~body:
          (Websim.Wrapper.render ~title:"item"
             [
               ("IName", Adm.Value.text (Fmt.str "item%d" i));
               ("SiteName", Adm.Value.text "mini");
               ("ToHome", Adm.Value.link "/home");
             ]))
    items;
  site

let items_nav =
  Dsl.(
    start "MiniHome" |> dive "Items" |> follow "ToItem" ~scheme:"MiniItem")

let test_rule2_fires_positive () =
  (* join of items with the MiniHome entry on SiteName *)
  let e =
    Nalg.join
      [ ("MiniItem.SiteName", "Home2.SiteName") ]
      (Dsl.finish items_nav)
      (Nalg.entry ~alias:"Home2" "MiniHome")
  in
  match on_memo Rewrite.rule2 mini_schema e with
  | [] -> Alcotest.fail "rule 2 must fire"
  | rewritten :: _ ->
    (* the join became a follow along ToHome *)
    let has_follow_home =
      Nalg.fold
        (fun acc n ->
          acc
          ||
          match n with
          | Nalg.Follow { link = "MiniItem.ToHome"; alias = "Home2"; _ } -> true
          | _ -> false)
        false rewritten
    in
    Alcotest.(check bool) "follows ToHome" true has_follow_home;
    (* and evaluates to the same relation *)
    let site = build_mini_site () in
    let eval expr =
      let http = Websim.Http.connect site in
      Eval.eval mini_schema (Eval.live_source mini_schema http) expr
    in
    Alcotest.(check bool) "same answer" true
      (Adm.Relation.equal
         (Adm.Relation.sort_rows (eval e))
         (Adm.Relation.sort_rows (eval rewritten)))

let test_rule2_needs_matching_constraint () =
  (* joining on IName (no constraint towards the entry) must not fire *)
  let e =
    Nalg.join
      [ ("MiniItem.IName", "Home2.SiteName") ]
      (Dsl.finish items_nav)
      (Nalg.entry ~alias:"Home2" "MiniHome")
  in
  Alcotest.(check int) "no rewriting" 0 (List.length (on_memo Rewrite.rule2 mini_schema e))

let test_mini_site_crawls () =
  let site = build_mini_site () in
  let http = Websim.Http.connect site in
  let instance = Websim.Crawler.crawl mini_schema http in
  Alcotest.(check int) "4 pages" 4 instance.Websim.Crawler.fetched;
  Alcotest.(check (list string)) "constraints hold" []
    (Websim.Crawler.validate mini_schema instance)

let suite =
  ( "rule2",
    [
      Alcotest.test_case "mini site crawls" `Quick test_mini_site_crawls;
      Alcotest.test_case "rule 2 fires (positive)" `Quick test_rule2_fires_positive;
      Alcotest.test_case "rule 2 needs constraint" `Quick test_rule2_needs_matching_constraint;
    ] )
