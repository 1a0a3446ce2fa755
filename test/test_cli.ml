(* The command-line interface on inputs that used to escape as OCaml
   exceptions: each must end in a coded diagnostic with its documented
   exit code (2 for a query the lint gate rejects, 124 for a usage
   error). The tests run the built executable. *)

let cli = "../bin/webviews_cli.exe"

(* Run the CLI with [args]; return its exit code and its stderr. *)
let run_cli args =
  let err = Filename.temp_file "webviews_cli" ".err" in
  let cmd =
    String.concat " " (cli :: List.map Filename.quote args)
    ^ " > /dev/null 2> " ^ Filename.quote err
  in
  let code = Sys.command cmd in
  let stderr = In_channel.with_open_text err In_channel.input_all in
  Sys.remove err;
  (code, stderr)

let contains s sub = Test_contain.contains_sub ~sub s

let expect_exit name want (code, stderr) =
  Alcotest.(check int) (Fmt.str "%s exits %d (stderr: %s)" name want stderr) want code

let test_form_only_query () =
  List.iter
    (fun cmd ->
      let ((_, stderr) as r) =
        run_cli [ cmd; "--site"; "formsite"; "SELECT P.PName FROM Professor P" ]
      in
      expect_exit cmd 2 r;
      Alcotest.(check bool)
        (cmd ^ " reports E0111 or E0309") true
        (contains stderr "E0111" || contains stderr "E0309"))
    [ "query"; "plan"; "explain"; "run" ]

let test_bad_workload_line () =
  let path = Filename.temp_file "webviews_workload" ".sql" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        "# a comment\nSELECT p.PName FROM Professor p\n\nSELECT p.Nope FROM Professor p\n");
  List.iter
    (fun cmd ->
      let ((_, stderr) as r) = run_cli [ cmd; "--workload"; path ] in
      expect_exit cmd 2 r;
      Alcotest.(check bool)
        (cmd ^ " points at line 4 with E0304") true
        (contains stderr (path ^ ":4: error[E0304]")))
    [ "serve"; "churn" ];
  Sys.remove path

let test_unbuildable_site_sizes () =
  List.iter
    (fun (flag, value) ->
      let ((_, stderr) as r) =
        run_cli [ "query"; flag ^ "=" ^ value; "SELECT p.PName FROM Professor p" ]
      in
      expect_exit (flag ^ "=" ^ value) 124 r;
      Alcotest.(check bool) ("usage error names " ^ flag) true (contains stderr flag))
    [ ("--depts", "0"); ("--profs", "0"); ("--courses", "-1") ]

let suite =
  ( "cli",
    [
      Alcotest.test_case "form-only query is a coded error, exit 2" `Quick
        test_form_only_query;
      Alcotest.test_case "bad workload line is a coded error, exit 2" `Quick
        test_bad_workload_line;
      Alcotest.test_case "unbuildable site size is a usage error" `Quick
        test_unbuildable_site_sizes;
    ] )
