import numpy as np
import pytest

from anchorkit.data import (
    AnnotationRecord,
    AugConfig,
    FaceAnnotation,
    SynthConfig,
    annotations_to_ground_truth,
    augment,
    load_ppm,
    parse_widerface_annotations,
    sample_rng,
    save_pgm,
    serialize_widerface_annotations,
    synth_dataset,
)
from anchorkit.geometry import Box


class TestAnnotationParsing:
    def test_single_record(self):
        records = parse_widerface_annotations("a.jpg\n1\n10 10 20 20 0 0 0 0 0 0\n")
        assert len(records) == 1
        rec = records[0]
        assert rec.image_path == "a.jpg"
        assert len(rec.faces) == 1
        face = rec.faces[0]
        assert (face.x, face.y, face.w, face.h) == (10, 10, 20, 20)

    def test_zero_count_with_placeholder(self):
        records = parse_widerface_annotations("b.jpg\n0\n0 0 0 0 0 0 0 0 0 0\n")
        assert len(records) == 1
        assert records[0].faces == []

    def test_zero_count_without_placeholder(self):
        records = parse_widerface_annotations("b.jpg\n0\nc.jpg\n0\n")
        assert [r.image_path for r in records] == ["b.jpg", "c.jpg"]

    def test_truncated_stream_names_line(self):
        with pytest.raises(ValueError, match="line 4"):
            parse_widerface_annotations("a.jpg\n2\n10 10 20 20 0 0 0 0 0 0\n")

    def test_non_numeric_field_names_line(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_widerface_annotations("a.jpg\n1\n10 x 20 20 0 0 0 0 0 0\n")

    def test_bad_count_names_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_widerface_annotations("a.jpg\nnope\n")

    def test_repeated_image_names_line(self):
        text = "a.jpg\n1\n10 10 20 20 0 0 0 0 0 0\nb.jpg\n0\na.jpg\n0\n"
        with pytest.raises(ValueError, match=r"^line 6: image 'a.jpg' repeats line 1$"):
            parse_widerface_annotations(text)

    def test_attributes_preserved(self):
        records = parse_widerface_annotations("a.jpg\n1\n1 2 3 4 2 1 0 1 2 1\n")
        f = records[0].faces[0]
        assert (f.blur, f.expression, f.illumination, f.invalid, f.occlusion, f.pose) == (
            2, 1, 0, 1, 2, 1,
        )
        assert f.ignore  # invalid flag set

    def test_parse_serialize_identity(self):
        records = [
            AnnotationRecord("x/y.jpg", [FaceAnnotation(1, 2, 3, 4), FaceAnnotation(9, 9, 5, 5, blur=1)]),
            AnnotationRecord("empty.jpg", []),
            AnnotationRecord("z.jpg", [FaceAnnotation(0, 0, 0, 0, invalid=1)]),
        ]
        text = serialize_widerface_annotations(records)
        assert parse_widerface_annotations(text) == records

    def test_zero_size_box_kept_with_ignore(self):
        records = parse_widerface_annotations("a.jpg\n1\n5 5 0 0 0 0 0 0 0 0\n")
        gts = annotations_to_ground_truth(records)
        assert gts.ignore["a.jpg"] == [True]
        assert len(gts.boxes["a.jpg"]) == 1


class TestPPM:
    def test_p5_single_pixel(self):
        img = load_ppm(b"P5\n1 1\n255\n\xff")
        assert img.shape == (1, 1, 1)
        assert img[0, 0, 0] == pytest.approx(1.0)

    def test_p6_red_pixel_luma(self):
        img = load_ppm(b"P6\n1 1\n255\n\xff\x00\x00")
        assert img[0, 0, 0] == pytest.approx(0.299)

    def test_comments_in_header(self):
        img = load_ppm(b"P5\n# a comment\n2 1\n255\n\x00\x80")
        assert img.shape == (1, 1, 2)

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            load_ppm(b"P3\n1 1\n255\n")

    def test_bad_maxval(self):
        with pytest.raises(ValueError, match="maxval"):
            load_ppm(b"P5\n1 1\n65535\n\x00\x00")

    @pytest.mark.parametrize(
        "header,field",
        [(b"P5\nabc 1\n255\n", "width"), (b"P5\n1 1.5\n255\n", "height"),
         (b"P6\n1 1\nff\n", "maxval"), (b"P5\n-1 1\n255\n", "width")],
    )
    def test_bad_header_field_named(self, header, field):
        with pytest.raises(ValueError, match=f"field {field}:"):
            load_ppm(header + b"\x00" * 3)

    def test_truncated_payload(self):
        with pytest.raises(ValueError, match="truncated"):
            load_ppm(b"P5\n2 2\n255\n\x00")

    def test_pgm_round_trip(self):
        rng = np.random.default_rng(0)
        img = rng.random((1, 5, 7)).astype(np.float32)
        again = load_ppm(save_pgm(img))
        np.testing.assert_allclose(again, np.rint(img * 255) / 255, atol=1e-7)


class TestSynthDataset:
    def test_empty(self):
        images, gts = synth_dataset(SynthConfig(), 0, seed=0)
        assert images == [] and gts.boxes == {}

    def test_deterministic(self):
        a_imgs, a_gts = synth_dataset(SynthConfig(), 5, seed=9)
        b_imgs, b_gts = synth_dataset(SynthConfig(), 5, seed=9)
        for x, y in zip(a_imgs, b_imgs):
            np.testing.assert_array_equal(x, y)
        assert a_gts.boxes == b_gts.boxes

    def test_single_face_area(self):
        cfg = SynthConfig(faces_min=1, faces_max=1, face_size_min=16, face_size_max=16,
                          distractor_rate=0.0)
        _, gts = synth_dataset(cfg, 1, seed=3)
        (box,) = gts.boxes["000000.pgm"]
        assert box.area == 256

    def test_faces_inside_image(self):
        images, gts = synth_dataset(SynthConfig(), 20, seed=1)
        for key, boxes in gts.boxes.items():
            for b in boxes:
                assert 0 <= b.x1 < b.x2 <= 64
                assert 0 <= b.y1 < b.y2 <= 64

    def test_faces_recoverable_by_thresholding(self):
        cfg = SynthConfig(distractor_rate=0.0)
        images, gts = synth_dataset(cfg, 10, seed=2)
        cut = cfg.noise_amplitude + 0.5 * cfg.face_contrast
        for i, img in enumerate(images):
            mask = np.zeros((64, 64), dtype=bool)
            for b in gts.boxes[f"{i:06d}.pgm"]:
                mask[int(b.y1) : int(b.y2), int(b.x1) : int(b.x2)] = True
            assert np.all(img[0][mask] > cut), "face pixels must sit above the threshold"
            assert np.all(img[0][~mask] < cut), "background must sit below it"

    def test_face_too_large_rejected(self):
        with pytest.raises(ValueError, match="fit"):
            SynthConfig(image_size=32, face_size_max=40)

    def test_face_size_range_reversed_rejected(self):
        with pytest.raises(ValueError, match=r"^face_size_min must be <= face_size_max, got 30 > 20$"):
            SynthConfig(face_size_min=30, face_size_max=20)
        SynthConfig(face_size_min=20, face_size_max=20)


class TestAugment:
    @pytest.mark.parametrize("field, value", [
        ("hflip_prob", 7.0), ("hflip_prob", -0.1), ("brightness_jitter", -0.1),
    ])
    def test_out_of_range_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            AugConfig(**{field: value})

    def test_pure_rescale(self):
        cfg = AugConfig(crop_ratio_min=1.0, crop_ratio_max=1.0, hflip_prob=0.0, brightness_jitter=0.0)
        img = np.zeros((1, 64, 64), dtype=np.float32)
        boxes = [Box(10, 20, 30, 40)]
        out, new_boxes = augment(img, boxes, cfg, 128, np.random.default_rng(0))
        assert out.shape == (1, 128, 128)
        assert new_boxes[0] == Box(20, 40, 60, 80)

    def test_hflip_mirrors_boxes(self):
        cfg = AugConfig(crop_ratio_min=1.0, crop_ratio_max=1.0, hflip_prob=1.0, brightness_jitter=0.0)
        img = np.zeros((1, 100, 100), dtype=np.float32)
        _, boxes = augment(img, [Box(10, 0, 20, 10)], cfg, 100, np.random.default_rng(0))
        assert boxes[0] == Box(80, 0, 90, 10)

    def test_outside_gt_dropped(self):
        cfg = AugConfig(crop_ratio_min=0.5, crop_ratio_max=0.5, hflip_prob=0.0, brightness_jitter=0.0)
        img = np.zeros((1, 64, 64), dtype=np.float32)
        # one gt in each corner; a 32px crop can keep at most one corner region
        boxes = [Box(0, 0, 8, 8), Box(56, 56, 64, 64)]
        _, kept = augment(img, boxes, cfg, 32, np.random.default_rng(1))
        assert len(kept) <= 1

    def test_boxes_stay_valid(self):
        rng = np.random.default_rng(3)
        cfg = AugConfig(crop_ratio_min=0.3)  # random crops, clipped boxes
        images, gts = synth_dataset(SynthConfig(), 20, seed=5)
        for i, img in enumerate(images):
            out, boxes = augment(img, gts.boxes[f"{i:06d}.pgm"], cfg, 64, rng)
            assert out.shape == (1, 64, 64)
            assert out.min() >= 0.0 and out.max() <= 1.0
            for b in boxes:
                assert 0 <= b.x1 < b.x2 <= 64
                assert 0 <= b.y1 < b.y2 <= 64

    def test_deterministic_given_rng_seed(self):
        cfg = AugConfig(crop_ratio_min=0.3)
        images, gts = synth_dataset(SynthConfig(), 1, seed=5)
        a = augment(images[0], gts.boxes["000000.pgm"], cfg, 64, sample_rng(1, 2, 3))
        b = augment(images[0], gts.boxes["000000.pgm"], cfg, 64, sample_rng(1, 2, 3))
        np.testing.assert_array_equal(a[0], b[0])
        assert a[1] == b[1]

    def test_brightness_jitter_clamped(self):
        cfg = AugConfig(crop_ratio_min=1.0, crop_ratio_max=1.0, hflip_prob=0.0, brightness_jitter=0.5)
        img = np.full((1, 16, 16), 0.9, dtype=np.float32)
        for seed in range(5):
            out, _ = augment(img, [], cfg, 16, np.random.default_rng(seed))
            assert out.max() <= 1.0 and out.min() >= 0.0
