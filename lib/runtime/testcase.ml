type request = {
  meth : string;
  path : string;
  params : (string * string) list;
}

type t = {
  name : string;
  input : string list;
  files : (string * string) list;
  requests : request list;
  seed : int;
}

let make ?(input = []) ?(files = []) ?(requests = []) ?(seed = 0) name =
  { name; input; files; requests; seed }

let get ?(params = []) path = { meth = "GET"; path; params }
let post ~params path = { meth = "POST"; path; params }
