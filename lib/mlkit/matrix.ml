type t = { rows : int; cols : int; data : float array }

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Matrix.create: negative dimension";
  { rows; cols; data = Array.make (rows * cols) 0.0 }

let init rows cols f =
  let m = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      m.data.((i * cols) + j) <- f i j
    done
  done;
  m

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let of_arrays arrays =
  let rows = Array.length arrays in
  if rows = 0 then invalid_arg "Matrix.of_arrays: empty";
  let cols = Array.length arrays.(0) in
  Array.iter
    (fun r -> if Array.length r <> cols then invalid_arg "Matrix.of_arrays: ragged rows")
    arrays;
  init rows cols (fun i j -> arrays.(i).(j))

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then invalid_arg "Matrix.get: out of bounds";
  m.data.((i * m.cols) + j)

let set m i j v =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then invalid_arg "Matrix.set: out of bounds";
  m.data.((i * m.cols) + j) <- v

let dims m = (m.rows, m.cols)

let row m i = Array.init m.cols (fun j -> m.data.((i * m.cols) + j))

let col m j = Array.init m.rows (fun i -> m.data.((i * m.cols) + j))

let mul a b =
  if a.cols <> b.rows then invalid_arg "Matrix.mul: dimension mismatch";
  let m = create a.rows b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = a.data.((i * a.cols) + k) in
      if aik <> 0.0 then
        for j = 0 to b.cols - 1 do
          m.data.((i * b.cols) + j) <-
            m.data.((i * b.cols) + j) +. (aik *. b.data.((k * b.cols) + j))
        done
    done
  done;
  m

let equal a b =
  a.rows = b.rows && a.cols = b.cols
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= 1e-9) a.data b.data
