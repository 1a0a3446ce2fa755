(* Tests for the web substrate: site, HTTP, wrapper, crawler. *)

open Adm

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Site and HTTP                                                       *)
(* ------------------------------------------------------------------ *)

let test_site_put_get () =
  let site = Websim.Site.create () in
  Websim.Site.put site ~url:"/a" ~body:"A";
  check int_t "one page" 1 (Websim.Site.page_count site);
  (match Websim.Site.find site "/a" with
  | Some p -> check string_t "body" "A" p.Websim.Site.body
  | None -> Alcotest.fail "page missing");
  Websim.Site.delete site "/a";
  check bool_t "deleted" false (Websim.Site.mem site "/a")

let test_site_clock_and_dates () =
  let site = Websim.Site.create () in
  Websim.Site.put site ~url:"/a" ~body:"A";
  Websim.Site.tick site;
  Websim.Site.put site ~url:"/b" ~body:"B";
  let date u = (Option.get (Websim.Site.find site u)).Websim.Site.last_modified in
  check int_t "first at 0" 0 (date "/a");
  check int_t "second at 1" 1 (date "/b");
  Websim.Site.tick site;
  Websim.Site.touch site "/a";
  check int_t "touch bumps" 2 (date "/a")

let test_site_edit () =
  let site = Websim.Site.create () in
  Websim.Site.put site ~url:"/a" ~body:"old";
  Websim.Site.tick site;
  check bool_t "edit ok" true (Websim.Site.edit site "/a" (fun b -> b ^ "!"));
  check string_t "edited" "old!" (Option.get (Websim.Site.find site "/a")).Websim.Site.body;
  check bool_t "edit of missing" false (Websim.Site.edit site "/zzz" Fun.id)

let test_http_counters () =
  let site = Websim.Site.create () in
  Websim.Site.put site ~url:"/a" ~body:"hello";
  let http = Websim.Http.connect site in
  ignore (Websim.Http.get http "/a");
  ignore (Websim.Http.get http "/missing");
  ignore (Websim.Http.head http "/a");
  let s = Websim.Http.stats http in
  check int_t "gets" 2 s.Websim.Http.gets;
  check int_t "heads" 1 s.Websim.Http.heads;
  check int_t "404" 1 s.Websim.Http.not_found;
  check int_t "bytes" 5 s.Websim.Http.bytes;
  Websim.Http.reset_stats http;
  check int_t "reset" 0 (Websim.Http.stats http).Websim.Http.gets

let test_http_snapshot_diff () =
  let site = Websim.Site.create () in
  Websim.Site.put site ~url:"/a" ~body:"x";
  let http = Websim.Http.connect site in
  let before = Websim.Http.snapshot http in
  ignore (Websim.Http.get http "/a");
  let d = Websim.Http.diff ~before ~after:(Websim.Http.snapshot http) in
  check int_t "delta gets" 1 d.Websim.Http.gets

(* ------------------------------------------------------------------ *)
(* Wrapper                                                             *)
(* ------------------------------------------------------------------ *)

let toy_scheme =
  Page_scheme.make "Toy"
    [
      Page_scheme.attr "Name" Webtype.Text;
      Page_scheme.attr "Count" Webtype.Int;
      Page_scheme.attr "Next" (Webtype.Link "Toy");
      Page_scheme.attr ~optional:true "Note" Webtype.Text;
      Page_scheme.attr "Items"
        (Webtype.List
           [ ("Label", Webtype.Text); ("To", Webtype.Link "Toy") ]);
    ]

let toy_tuple : Value.tuple =
  [
    ("Name", Value.text "toy & co");
    ("Count", Value.Int 3);
    ("Next", Value.link "/next.html");
    ("Note", Value.Null);
    ( "Items",
      Value.Rows
        [
          [ ("Label", Value.text "first"); ("To", Value.link "/1.html") ];
          [ ("Label", Value.text "second"); ("To", Value.link "/2.html") ];
        ] );
  ]

let test_wrapper_roundtrip () =
  let html = Websim.Wrapper.render ~title:"Toy" toy_tuple in
  let extracted = Websim.Wrapper.extract toy_scheme ~url:"/toy.html" html in
  check bool_t "URL attached" true
    (Value.find extracted "URL" = Some (Value.link "/toy.html"));
  check bool_t "name escaped text roundtrips" true
    (Value.find extracted "Name" = Some (Value.text "toy & co"));
  check bool_t "int parsed" true (Value.find extracted "Count" = Some (Value.Int 3));
  check bool_t "link href" true
    (Value.find extracted "Next" = Some (Value.link "/next.html"));
  check bool_t "optional null" true (Value.find extracted "Note" = Some Value.Null);
  match Value.find extracted "Items" with
  | Some (Value.Rows [ r1; _ ]) ->
    check bool_t "nested label" true (Value.find r1 "Label" = Some (Value.text "first"));
    check bool_t "nested link" true (Value.find r1 "To" = Some (Value.link "/1.html"))
  | _ -> Alcotest.fail "nested items lost"

let test_wrapper_missing_required () =
  let partial = Value.remove toy_tuple "Name" in
  let html = Websim.Wrapper.render partial in
  Alcotest.check_raises "missing non-optional"
    (Websim.Wrapper.Wrap_error
       "page /t (Toy): missing non-optional attribute Name") (fun () ->
      ignore (Websim.Wrapper.extract toy_scheme ~url:"/t" html))

let test_wrapper_ignores_chrome () =
  (* extra unclassified markup must not confuse extraction *)
  let html = Websim.Wrapper.render ~title:"Noise" toy_tuple in
  check bool_t "nav chrome present" true
    (List.length (Html.by_class "nav" (Html.parse html)) = 1);
  let t = Websim.Wrapper.extract toy_scheme ~url:"/t" html in
  check bool_t "extraction unaffected" true
    (Value.find t "Count" = Some (Value.Int 3))

let test_wrapper_scoping () =
  (* same attribute name at two nesting levels: outer extraction must
     not descend into the nested list *)
  let scheme =
    Page_scheme.make "Scoped"
      [
        Page_scheme.attr "Name" Webtype.Text;
        Page_scheme.attr "Inner" (Webtype.List [ ("Name", Webtype.Text) ]);
      ]
  in
  let tuple =
    [
      ("Name", Value.text "outer");
      ("Inner", Value.Rows [ [ ("Name", Value.text "inner") ] ]);
    ]
  in
  let html = Websim.Wrapper.render tuple in
  let t = Websim.Wrapper.extract scheme ~url:"/s" html in
  check bool_t "outer name" true (Value.find t "Name" = Some (Value.text "outer"));
  match Value.find t "Inner" with
  | Some (Value.Rows [ r ]) ->
    check bool_t "inner name" true (Value.find r "Name" = Some (Value.text "inner"))
  | _ -> Alcotest.fail "inner list lost"

(* property: random toy tuples roundtrip through render/extract *)
let toy_gen =
  QCheck.Gen.(
    let label = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
    map2
      (fun (name, count) items ->
        [
          ("Name", Value.text name);
          ("Count", Value.Int count);
          ("Next", Value.link "/n.html");
          ("Note", Value.Null);
          ( "Items",
            Value.Rows
              (List.mapi
                 (fun i l ->
                   [ ("Label", Value.text l); ("To", Value.link (Fmt.str "/%d.html" i)) ])
                 items) );
        ])
      (pair label (int_bound 100))
      (list_size (int_bound 5) label))

let toy_arb = QCheck.make ~print:(Fmt.str "%a" Value.pp_tuple) toy_gen

let prop_wrapper_roundtrip =
  QCheck.Test.make ~name:"wrapper render/extract roundtrip" ~count:100 toy_arb
    (fun tuple ->
      let html = Websim.Wrapper.render tuple in
      let extracted = Websim.Wrapper.extract toy_scheme ~url:"/p" html in
      Value.equal_tuple
        (("URL", Value.link "/p") :: tuple)
        extracted)

(* ------------------------------------------------------------------ *)
(* Crawler                                                             *)
(* ------------------------------------------------------------------ *)

let test_crawl_university () =
  let uni = Sitegen.Sites.load University in
  let instance = Sitegen.Sites.crawl uni in
  let card name =
    Relation.cardinality (Websim.Crawler.find_relation_exn instance name)
  in
  check int_t "depts" 3 (card "DeptPage");
  check int_t "profs" 20 (card "ProfPage");
  check int_t "courses" 50 (card "CoursePage");
  check int_t "entry pages" 1 (card "HomePage");
  check int_t "pages fetched = site size" (Websim.Site.page_count uni.site)
    instance.Websim.Crawler.fetched;
  check Alcotest.(list string_t) "instance satisfies constraints" []
    (Websim.Crawler.validate uni.schema instance)

let test_crawl_counts_each_page_once () =
  let uni = Sitegen.Sites.load University in
  let http = Websim.Http.connect uni.site in
  let _ = Websim.Crawler.crawl uni.schema http in
  let s = Websim.Http.stats http in
  check int_t "GET per page exactly once" (Websim.Site.page_count uni.site)
    s.Websim.Http.gets

let test_outlinks () =
  let uni = Sitegen.Sites.load University in
  let instance = Sitegen.Sites.crawl uni in
  let ps = Schema.find_scheme_exn uni.schema "ProfPage" in
  let prof_rel = Websim.Crawler.find_relation_exn instance "ProfPage" in
  match Relation.rows prof_rel with
  | tuple :: _ ->
    let links = Websim.Crawler.outlinks ps tuple in
    check bool_t "has dept link" true
      (List.exists (fun (_, target) -> String.equal target "DeptPage") links)
  | [] -> Alcotest.fail "no professors crawled"

let test_crawl_tolerates_dangling () =
  let uni = Sitegen.University.build () in
  let site = Sitegen.Sites.of_university uni in
  (* break the site: remove one course page but not the links to it *)
  let any_course = List.hd (Sitegen.University.courses uni) in
  Websim.Site.delete site.site
    (Sitegen.University.course_url any_course.Sitegen.University.c_name);
  let instance = Sitegen.Sites.crawl site in
  check bool_t "crawl completes" true (instance.Websim.Crawler.fetched > 0)

let suite =
  ( "websim",
    [
      Alcotest.test_case "site put/get" `Quick test_site_put_get;
      Alcotest.test_case "site clock/dates" `Quick test_site_clock_and_dates;
      Alcotest.test_case "site edit" `Quick test_site_edit;
      Alcotest.test_case "http counters" `Quick test_http_counters;
      Alcotest.test_case "http snapshot/diff" `Quick test_http_snapshot_diff;
      Alcotest.test_case "wrapper roundtrip" `Quick test_wrapper_roundtrip;
      Alcotest.test_case "wrapper missing required" `Quick test_wrapper_missing_required;
      Alcotest.test_case "wrapper ignores chrome" `Quick test_wrapper_ignores_chrome;
      Alcotest.test_case "wrapper scoping" `Quick test_wrapper_scoping;
      QCheck_alcotest.to_alcotest prop_wrapper_roundtrip;
      Alcotest.test_case "crawl university" `Quick test_crawl_university;
      Alcotest.test_case "crawl counts pages once" `Quick test_crawl_counts_each_page_once;
      Alcotest.test_case "outlinks" `Quick test_outlinks;
      Alcotest.test_case "crawl tolerates dangling" `Quick test_crawl_tolerates_dangling;
    ] )
