package repro.vit

import repro.util.Rng
import repro.video.{ObjRec, Scene}

/** Axis-aligned bounding box (x, y = top-left corner; w, h = extent). */
final case class BBox(x: Double, y: Double, w: Double, h: Double) {
  require(w >= 0 && h >= 0, s"negative extent: $this")
  def x2: Double = x + w
  def y2: Double = y + h
  def area: Double = w * h
  def cx: Double = x + w / 2
  def cy: Double = y + h / 2

  /** Intersection-over-union with another box; 0 when disjoint. */
  def iou(o: BBox): Double = {
    val ix = math.max(0.0, math.min(x2, o.x2) - math.max(x, o.x))
    val iy = math.max(0.0, math.min(y2, o.y2) - math.max(y, o.y))
    val inter = ix * iy
    val union = area + o.area - inter
    if (union <= 0) 0.0 else inter / union
  }

  def contains(px: Double, py: Double): Boolean =
    px >= x && px < x2 && py >= y && py < y2
}

object BBox {
  /** Clamp a box into a canvas, preserving extent where possible. */
  def clamp(b: BBox, cw: Double, ch: Double): BBox = {
    val w = math.min(b.w, cw); val h = math.min(b.h, ch)
    BBox(math.max(0, math.min(cw - w, b.x)), math.max(0, math.min(ch - h, b.y)), w, h)
  }

  /** The shared detector-box model: an object's true box with Gaussian
    * position and extent error of `noise` x its size, clamped to the
    * canvas. Each detector (summary head, rerank decoder, every baseline)
    * passes its own salt, so their errors are independent but fixed per
    * object.
    */
  def noisy(o: ObjRec, noise: Double, salt: Long): BBox = {
    val key = Rng.mix(o.objId, salt)
    clamp(
      BBox(
        o.x + noise * o.w * Rng.gaussian(key, 1L),
        o.y + noise * o.h * Rng.gaussian(key, 2L),
        math.max(2.0, o.w * (1.0 + noise * Rng.gaussian(key, 3L))),
        math.max(2.0, o.h * (1.0 + noise * Rng.gaussian(key, 4L)))),
      Scene.W, Scene.H)
  }
}
