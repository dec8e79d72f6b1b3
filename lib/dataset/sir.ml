let grep_source =
  {|
// grep-like line matcher: modes plain, count, invert, prefix, number.
fun main() {
  let pattern = scanf();
  let mode = scanf();
  let fname = scanf();
  if (strlen(pattern) == 0) {
    usage();
    return;
  }
  let f = fopen(fname, "r");
  let total = 0;
  let matched = 0;
  while (feof(f) == false) {
    let line = fgets(f);
    total = total + 1;
    let hit = match_line(line, pattern, mode);
    if (hit == 1) {
      matched = matched + 1;
      if (strcmp(mode, "count") != 0) {
        print_match(total, line, mode);
      }
    }
  }
  fclose(f);
  if (strcmp(mode, "count") == 0) {
    printf("%d\n", matched);
  }
  summary(matched, total, pattern);
}

fun usage() {
  puts("usage: grep PATTERN MODE FILE");
  puts("modes: plain count invert prefix number");
}

fun match_line(line, pattern, mode) {
  let hit = 0;
  if (strcmp(mode, "prefix") == 0) {
    if (strcmp(substr(line, 0, strlen(pattern)), pattern) == 0) {
      hit = 1;
    }
  } else {
    if (str_contains(line, pattern)) {
      hit = 1;
    }
  }
  if (strcmp(mode, "invert") == 0) {
    hit = 1 - hit;
  }
  return hit;
}

fun print_match(lineno, line, mode) {
  if (strcmp(mode, "number") == 0) {
    printf("%d:%s\n", lineno, line);
  } else {
    puts(line);
  }
}

fun summary(matched, total, pattern) {
  let f = fopen("grep.stats", "a");
  fprintf(f, "%s matched %d of %d\n", pattern, matched, total);
  fclose(f);
}
|}

let gzip_source =
  {|
// gzip-like run-length codec: compress, decompress, stats.
fun main() {
  let op = scanf();
  let infile = scanf();
  let outfile = scanf();
  if (strcmp(op, "c") == 0) {
    compress(infile, outfile);
  } else if (strcmp(op, "d") == 0) {
    decompress(infile, outfile);
  } else if (strcmp(op, "l") == 0) {
    stats(infile);
  } else {
    puts("usage: gzip c|d|l IN OUT");
  }
}

fun compress(infile, outfile) {
  let fin = fopen(infile, "r");
  let fout = fopen(outfile, "w");
  let in_bytes = 0;
  let out_bytes = 0;
  while (feof(fin) == false) {
    let line = fgets(fin);
    let coded = encode_line(line);
    in_bytes = in_bytes + strlen(line);
    out_bytes = out_bytes + strlen(coded);
    fputs(coded, fout);
    fputs("\n", fout);
  }
  fclose(fin);
  fclose(fout);
  report("compress", in_bytes, out_bytes);
}

fun decompress(infile, outfile) {
  let fin = fopen(infile, "r");
  let fout = fopen(outfile, "w");
  let in_bytes = 0;
  let out_bytes = 0;
  while (feof(fin) == false) {
    let line = fgets(fin);
    let plain = decode_line(line);
    in_bytes = in_bytes + strlen(line);
    out_bytes = out_bytes + strlen(plain);
    fputs(plain, fout);
    fputs("\n", fout);
  }
  fclose(fin);
  fclose(fout);
  report("decompress", in_bytes, out_bytes);
}

fun encode_line(line) {
  let out = "";
  let n = strlen(line);
  let i = 0;
  while (i < n) {
    let c = line[i];
    let run = 1;
    while (i + run < n) {
      if (strcmp(line[i + run], c) == 0) {
        run = run + 1;
      } else {
        break;
      }
    }
    out = strcat(out, to_string(run));
    out = strcat(out, c);
    i = i + run;
  }
  return out;
}

fun decode_line(line) {
  let out = "";
  let n = strlen(line);
  let count = 0;
  for (let i = 0; i < n; i = i + 1) {
    let c = line[i];
    if (c >= "0" && c <= "9") {
      count = count * 10 + atoi(c);
    } else {
      if (count == 0) {
        count = 1;
      }
      for (let k = 0; k < count; k = k + 1) {
        out = strcat(out, c);
      }
      count = 0;
    }
  }
  return out;
}

fun stats(infile) {
  let fin = fopen(infile, "r");
  let lines = 0;
  let bytes = 0;
  while (feof(fin) == false) {
    let line = fgets(fin);
    lines = lines + 1;
    bytes = bytes + strlen(line);
  }
  fclose(fin);
  printf("%d line(s), %d byte(s)\n", lines, bytes);
}

fun report(op, in_bytes, out_bytes) {
  printf("%s: %d -> %d bytes\n", op, in_bytes, out_bytes);
  let f = fopen("gzip.stats", "a");
  fprintf(f, "%s %d %d\n", op, in_bytes, out_bytes);
  fclose(f);
}
|}

let sed_source =
  {|
// sed-like stream editor: s (substitute), d (delete matching), n (number).
fun main() {
  let cmd = scanf();
  let arg1 = scanf();
  let arg2 = scanf();
  let fname = scanf();
  let f = fopen(fname, "r");
  let lineno = 0;
  while (feof(f) == false) {
    let line = fgets(f);
    lineno = lineno + 1;
    if (strcmp(cmd, "s") == 0) {
      puts(replace_all(line, arg1, arg2));
    } else if (strcmp(cmd, "d") == 0) {
      if (str_contains(line, arg1) == false) {
        puts(line);
      }
    } else if (strcmp(cmd, "n") == 0) {
      printf("%d\t%s\n", lineno, line);
    } else {
      puts(line);
    }
  }
  fclose(f);
  footer(cmd, lineno);
}

fun find_sub(line, needle, start) {
  let n = strlen(line);
  let m = strlen(needle);
  if (m == 0) {
    return -1;
  }
  for (let i = start; i + m <= n; i = i + 1) {
    if (strcmp(substr(line, i, m), needle) == 0) {
      return i;
    }
  }
  return -1;
}

fun replace_all(line, old, new) {
  let out = "";
  let pos = 0;
  let hit = find_sub(line, old, pos);
  while (hit >= 0) {
    out = strcat(out, substr(line, pos, hit - pos));
    out = strcat(out, new);
    pos = hit + strlen(old);
    hit = find_sub(line, old, pos);
  }
  out = strcat(out, substr(line, pos, strlen(line) - pos));
  return out;
}

fun footer(cmd, lineno) {
  let f = fopen("sed.stats", "a");
  fprintf(f, "%s processed %d line(s)\n", cmd, lineno);
  fclose(f);
}
|}

let no_db (_ : Sqldb.Engine.t) = ()

(* Deterministic text corpus for the file-processing apps. *)
let make_file rng lines =
  let words = [| "alpha"; "bravo"; "charlie"; "delta"; "echo"; "foxtrot"; "golf"; "aaaa"; "bbbb" |] in
  String.concat "\n"
    (List.init lines (fun _ ->
         String.concat " "
           (List.init (1 + Mlkit.Rng.int rng 6) (fun _ -> Mlkit.Rng.pick rng words))))

let grep_cases ~count ~seed =
  let rng = Mlkit.Rng.create seed in
  let patterns = [| "alpha"; "br"; "zulu"; "a"; "golf"; "" |] in
  let modes = [| "plain"; "count"; "invert"; "prefix"; "number"; "weird" |] in
  List.init count (fun case ->
      let input =
        [ patterns.(case mod Array.length patterns);
          modes.((case / 2) mod Array.length modes); "input.txt" ]
      in
      let files = [ ("input.txt", make_file rng (3 + Mlkit.Rng.int rng 10)) ] in
      Runtime.Testcase.make ~input ~files ~seed:case (Printf.sprintf "grep-%04d" case))

let gzip_cases ~count ~seed =
  let rng = Mlkit.Rng.create seed in
  let ops = [| "c"; "d"; "l"; "x" |] in
  List.init count (fun case ->
      let op = ops.(case mod Array.length ops) in
      let input = [ op; "in.dat"; "out.dat" ] in
      let files = [ ("in.dat", make_file rng (2 + Mlkit.Rng.int rng 8)) ] in
      Runtime.Testcase.make ~input ~files ~seed:case (Printf.sprintf "gzip-%04d" case))

let sed_cases ~count ~seed =
  let rng = Mlkit.Rng.create seed in
  let cmds = [| "s"; "d"; "n"; "p" |] in
  List.init count (fun case ->
      let cmd = cmds.(case mod Array.length cmds) in
      let input = [ cmd; "alpha"; "OMEGA"; "input.txt" ] in
      let files = [ ("input.txt", make_file rng (2 + Mlkit.Rng.int rng 8)) ] in
      Runtime.Testcase.make ~input ~files ~seed:case (Printf.sprintf "sed-%04d" case))

let app1 () =
  {
    Adprom.Pipeline.name = "App1 (grep-like)";
    source = grep_source;
    dbms = "-";
    setup_db = no_db;
    test_cases = grep_cases ~count:120 ~seed:8001;
  }

let app2 () =
  {
    Adprom.Pipeline.name = "App2 (gzip-like)";
    source = gzip_source;
    dbms = "-";
    setup_db = no_db;
    test_cases = gzip_cases ~count:80 ~seed:8002;
  }

let app3 () =
  {
    Adprom.Pipeline.name = "App3 (sed-like)";
    source = sed_source;
    dbms = "-";
    setup_db = no_db;
    test_cases = sed_cases ~count:100 ~seed:8003;
  }

let app4 ?(cases = 300) ?(spec = Proggen.bash_like) () =
  {
    Adprom.Pipeline.name = "App4 (bash-scale, generated)";
    source = Proggen.generate spec;
    dbms = "-";
    setup_db = no_db;
    test_cases = Proggen.test_cases spec ~count:cases;
  }

let all () =
  [ ("App1", app1 ()); ("App2", app2 ()); ("App3", app3 ()); ("App4", app4 ()) ]

let site_coverage analysis traces =
  let static_sites =
    List.concat_map
      (fun (_, cfg) ->
        List.filter_map
          (fun (id, site) -> if site.Analysis.Cfg.is_user then None else Some id)
          (Analysis.Cfg.call_nodes cfg))
      analysis.Analysis.Analyzer.cfgs
  in
  let seen = Hashtbl.create 256 in
  List.iter
    (fun (_, trace) ->
      Array.iter
        (fun (e : Runtime.Collector.event) ->
          if e.Runtime.Collector.block >= 0 then
            Hashtbl.replace seen e.Runtime.Collector.block ())
        trace)
    traces;
  let covered = List.filter (Hashtbl.mem seen) static_sites in
  if static_sites = [] then 0.0
  else float_of_int (List.length covered) /. float_of_int (List.length static_sites)
